package main

import (
	"fmt"
	"math/rand"

	"repro/internal/nfs"
)

// nfs-meta: each worker owns a directory holding a bounded live set of
// small files. A round creates and writes one file, looks up and reads
// two, renames one, removes one and lists the directory, so removes
// keep pace with creates and the live set stays flat.

const (
	metaLive      = 32 // live files per worker
	metaMaxBlocks = 8
)

type metaFile struct {
	name   string
	id     uint32
	fh     nfs.FH
	blocks int
}

type metaWorker struct {
	dirName string
	dir     nfs.FH
	live    []*metaFile
	index   uint32 // worker index, the high bits of every file id
	next    uint32 // counter for file ids and names
	rng     *rand.Rand
	buf     []byte
	// tainted is set when a namespace operation failed, so the model
	// of this directory is no longer exact and is not checked.
	tainted bool
}

type metaState struct {
	workers []*metaWorker
}

func newMetaState(seed int64, workers int) *metaState {
	st := &metaState{}
	for w := 0; w < workers; w++ {
		st.workers = append(st.workers, &metaWorker{
			dirName: fmt.Sprintf("w%d", w),
			index:   uint32(w + 1),
			rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(w))),
			buf:     make([]byte, metaMaxBlocks*blockSize),
		})
	}
	return st
}

// newFile names a new file incarnation: its id is unique across the
// run, so a block of a removed or another worker's file never matches.
func (w *metaWorker) newFile() *metaFile {
	w.next++
	return &metaFile{
		name:   fmt.Sprintf("f%d", w.next),
		id:     w.index<<24 | w.next,
		blocks: 1 + w.rng.Intn(metaMaxBlocks),
	}
}

func (w *metaWorker) content(f *metaFile) []byte {
	data := w.buf[:f.blocks*blockSize]
	fillBlocks(data, f.id, 0, ones(f.blocks))
	return data
}

func ones(n int) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func (st *metaState) prefill(c client, root nfs.FH) error {
	for _, w := range st.workers {
		dir, err := c.mkdir(root, w.dirName)
		if err != nil {
			return fmt.Errorf("mkdir %s: %w", w.dirName, err)
		}
		w.dir = dir
		for len(w.live) < metaLive {
			f := w.newFile()
			if f.fh, err = c.create(dir, f.name); err != nil {
				return fmt.Errorf("create %s: %w", f.name, err)
			}
			if err := c.write(f.fh, 0, w.content(f)); err != nil {
				return fmt.Errorf("write %s: %w", f.name, err)
			}
			w.live = append(w.live, f)
		}
	}
	return nil
}

func (st *metaState) round(wi int, r *recorder) {
	w := st.workers[wi]

	// Create and write a new file.
	f := w.newFile()
	if r.call(classMeta, func(c client) (err error) { f.fh, err = c.create(w.dir, f.name); return err }) {
		data := w.content(f)
		if r.call(classWrite, func(c client) error { return c.write(f.fh, 0, data) }) {
			r.bytesWritten += int64(len(data))
		} else {
			w.tainted = true
		}
		w.live = append(w.live, f)
	} else {
		w.tainted = true
	}

	// Look up and read two files.
	for i := 0; i < 2; i++ {
		f := w.live[w.rng.Intn(len(w.live))]
		var fh nfs.FH
		if !r.call(classMeta, func(c client) (err error) { fh, err = c.lookup(w.dir, f.name); return err }) {
			continue
		}
		if !w.tainted && fh.File != f.fh.File {
			r.check(fmt.Errorf("lookup %s/%s: file %d, want %d", w.dirName, f.name, fh.File, f.fh.File))
		}
		var data []byte
		if r.call(classRead, func(c client) (err error) { data, err = c.read(fh, 0, f.blocks*blockSize); return err }) {
			r.bytesRead += int64(len(data))
			if !w.tainted {
				r.check(checkRead(data, f.id, 0, ones(f.blocks)))
			}
		}
	}

	// Rename one file to a fresh name.
	f = w.live[w.rng.Intn(len(w.live))]
	w.next++
	to := fmt.Sprintf("r%d", w.next)
	if r.call(classMeta, func(c client) error { return c.rename(w.dir, f.name, to) }) {
		f.name = to
	} else {
		w.tainted = true
	}

	// Remove one file.
	i := w.rng.Intn(len(w.live))
	f = w.live[i]
	if r.call(classMeta, func(c client) error { return c.remove(w.dir, f.name) }) {
		w.live = append(w.live[:i], w.live[i+1:]...)
	} else {
		w.tainted = true
	}

	// List the directory and compare it with the model.
	var ents []nfs.DirEntry
	if r.call(classMeta, func(c client) (err error) { ents, err = c.readdir(w.dir); return err }) && !w.tainted {
		r.check(w.checkListing(ents))
	}
}

// checkListing compares a readdir reply with the worker's model.
func (w *metaWorker) checkListing(ents []nfs.DirEntry) error {
	want := make(map[string]uint64, len(w.live))
	for _, f := range w.live {
		want[f.name] = uint64(f.fh.File)
	}
	for _, e := range ents {
		id, ok := want[e.Name]
		if !ok || id != uint64(e.ID) {
			return fmt.Errorf("readdir %s: unexpected entry %s (file %d)", w.dirName, e.Name, e.ID)
		}
	}
	if len(ents) != len(want) {
		return fmt.Errorf("readdir %s: %d entries, want %d", w.dirName, len(ents), len(want))
	}
	return nil
}

func (st *metaState) verifyAll(c client, root nfs.FH) error {
	for _, w := range st.workers {
		if w.tainted {
			continue
		}
		dir, err := c.lookup(root, w.dirName)
		if err != nil {
			return fmt.Errorf("lookup %s: %w", w.dirName, err)
		}
		ents, err := c.readdir(dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", w.dirName, err)
		}
		if err := w.checkListing(ents); err != nil {
			return err
		}
		for _, f := range w.live {
			fh, err := c.lookup(dir, f.name)
			if err != nil {
				return fmt.Errorf("lookup %s/%s: %w", w.dirName, f.name, err)
			}
			data, err := c.read(fh, 0, f.blocks*blockSize)
			if err != nil {
				return fmt.Errorf("read back %s/%s: %w", w.dirName, f.name, err)
			}
			if err := checkRead(data, f.id, 0, ones(f.blocks)); err != nil {
				return fmt.Errorf("read back %s/%s: %w", w.dirName, f.name, err)
			}
		}
	}
	return nil
}
