package main

import (
	"fmt"
	"math/rand"

	"repro/internal/nfs"
)

// The data workloads (nfs-write, nfs-hot-read) work on fixed-size
// files in the root directory, each owned by one worker, so every read
// has exactly one expected value.

const (
	fileBlocks = 64 // 256 KiB per data file
	ioBlocks   = 4  // nfs-write transfers 16 KiB
)

type dataFile struct {
	name    string
	id      uint32
	fh      nfs.FH
	vers    []uint32 // expected version of each block
	tainted bool     // a write to it failed, so its content is unknown
}

type dataWorker struct {
	files []*dataFile
	rng   *rand.Rand
	buf   []byte
}

// dataState is the model of a data workload's working set.
type dataState struct {
	hot     bool
	workers []*dataWorker
}

// newDataState splits nFiles files over the workers round-robin.
func newDataState(seed int64, workers, nFiles int, hot bool) *dataState {
	st := &dataState{hot: hot}
	for w := 0; w < workers; w++ {
		st.workers = append(st.workers, &dataWorker{
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(w))),
			buf: make([]byte, nfs.MaxIO),
		})
	}
	for i := 0; i < nFiles; i++ {
		w := st.workers[i%workers]
		f := &dataFile{name: fmt.Sprintf("d%03d", i), id: uint32(i + 1), vers: make([]uint32, fileBlocks)}
		for b := range f.vers {
			f.vers[b] = 1
		}
		w.files = append(w.files, f)
	}
	return st
}

func (st *dataState) prefill(c client, root nfs.FH) error {
	const chunk = nfs.MaxIO / blockSize
	buf := make([]byte, nfs.MaxIO)
	for _, w := range st.workers {
		for _, f := range w.files {
			fh, err := c.create(root, f.name)
			if err != nil {
				return fmt.Errorf("create %s: %w", f.name, err)
			}
			f.fh = fh
			for b := 0; b < fileBlocks; b += chunk {
				fillBlocks(buf, f.id, uint32(b), f.vers[b:b+chunk])
				if err := c.write(fh, int64(b)*blockSize, buf); err != nil {
					return fmt.Errorf("prefill %s: %w", f.name, err)
				}
			}
		}
	}
	return nil
}

func (st *dataState) round(wi int, r *recorder) {
	w := st.workers[wi]
	if st.hot {
		// One read of 4-64 KiB at a random block of a random file.
		n := 1 + w.rng.Intn(nfs.MaxIO/blockSize)
		f := w.files[w.rng.Intn(len(w.files))]
		b := w.rng.Intn(fileBlocks - n + 1)
		st.read(r, f, b, n)
		return
	}
	// nfs-write: one 16 KiB overwrite at a random block-aligned offset.
	f := w.files[w.rng.Intn(len(w.files))]
	b := w.rng.Intn(fileBlocks - ioBlocks + 1)
	next := make([]uint32, ioBlocks)
	for i := range next {
		next[i] = f.vers[b+i] + 1
	}
	data := w.buf[:ioBlocks*blockSize]
	fillBlocks(data, f.id, uint32(b), next)
	if r.call(classWrite, func(c client) error { return c.write(f.fh, int64(b)*blockSize, data) }) {
		copy(f.vers[b:], next)
		r.bytesWritten += int64(len(data))
	} else {
		f.tainted = true
	}
}

func (st *dataState) read(r *recorder, f *dataFile, b, n int) {
	var data []byte
	ok := r.call(classRead, func(c client) (err error) {
		data, err = c.read(f.fh, int64(b)*blockSize, n*blockSize)
		return err
	})
	if !ok {
		return
	}
	r.bytesRead += int64(len(data))
	if !f.tainted {
		r.check(checkRead(data, f.id, uint32(b), f.vers[b:b+n]))
	}
}

// verifyAll reads the whole working set back, finding each file by
// name from the root.
func (st *dataState) verifyAll(c client, root nfs.FH) error {
	const chunk = nfs.MaxIO / blockSize
	for _, w := range st.workers {
		for _, f := range w.files {
			if f.tainted {
				continue
			}
			fh, err := c.lookup(root, f.name)
			if err != nil {
				return fmt.Errorf("lookup %s: %w", f.name, err)
			}
			if fh.File != f.fh.File {
				return fmt.Errorf("lookup %s: file %d, want %d", f.name, fh.File, f.fh.File)
			}
			for b := 0; b < fileBlocks; b += chunk {
				data, err := c.read(fh, int64(b)*blockSize, chunk*blockSize)
				if err != nil {
					return fmt.Errorf("read back %s: %w", f.name, err)
				}
				if err := checkRead(data, f.id, uint32(b), f.vers[b:b+chunk]); err != nil {
					return fmt.Errorf("read back %s: %w", f.name, err)
				}
			}
		}
	}
	return nil
}
