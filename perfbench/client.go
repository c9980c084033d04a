package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/nfs"
	"repro/internal/pfs"
	"repro/internal/sched"
)

// client is the set of operations the NFS workloads issue. It has two
// implementations: wireClient goes over the NFS wire, fsysClient issues
// the same operation at the fsys.Volume boundary through Server.Do, so
// a traced run can subtract the second from the first to find the time
// the wire, XDR and dispatch layers add.
type client interface {
	read(fh nfs.FH, off int64, n int) ([]byte, error)
	write(fh nfs.FH, off int64, data []byte) error
	create(dir nfs.FH, name string) (nfs.FH, error)
	mkdir(dir nfs.FH, name string) (nfs.FH, error)
	lookup(dir nfs.FH, name string) (nfs.FH, error)
	rename(dir nfs.FH, from, to string) error
	remove(dir nfs.FH, name string) error
	readdir(dir nfs.FH) ([]nfs.DirEntry, error)
}

type wireClient struct{ c *nfs.Client }

func (w wireClient) read(fh nfs.FH, off int64, n int) ([]byte, error) { return w.c.Read(fh, off, n) }

func (w wireClient) write(fh nfs.FH, off int64, data []byte) error {
	_, err := w.c.Write(fh, off, data)
	return err
}

func (w wireClient) create(dir nfs.FH, name string) (nfs.FH, error) {
	fh, _, err := w.c.Create(dir, name)
	return fh, err
}

func (w wireClient) mkdir(dir nfs.FH, name string) (nfs.FH, error) {
	fh, _, err := w.c.Mkdir(dir, name)
	return fh, err
}

func (w wireClient) lookup(dir nfs.FH, name string) (nfs.FH, error) {
	fh, _, err := w.c.Lookup(dir, name)
	return fh, err
}

func (w wireClient) rename(dir nfs.FH, from, to string) error { return w.c.Rename(dir, from, dir, to) }

func (w wireClient) remove(dir nfs.FH, name string) error { return w.c.Remove(dir, name) }

func (w wireClient) readdir(dir nfs.FH) ([]nfs.DirEntry, error) { return w.c.Readdir(dir) }

// fsysClient performs each operation the way the NFS server's
// dispatcher does, minus the wire: on a kernel task, against the
// server's volume.
type fsysClient struct{ srv *pfs.Server }

func (f fsysClient) read(fh nfs.FH, off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	var got int64
	err := f.srv.Do(func(t sched.Task) error {
		v := f.srv.Vol
		h, err := v.OpenByID(t, fh.File)
		if err != nil {
			return err
		}
		got, err = v.ReadAt(t, h, off, buf, int64(n))
		if cerr := v.Close(t, h); err == nil {
			err = cerr
		}
		return err
	})
	return buf[:got], err
}

func (f fsysClient) write(fh nfs.FH, off int64, data []byte) error {
	return f.srv.Do(func(t sched.Task) error {
		v := f.srv.Vol
		h, err := v.OpenByID(t, fh.File)
		if err != nil {
			return err
		}
		err = v.WriteAt(t, h, off, data, int64(len(data)))
		if cerr := v.Close(t, h); err == nil {
			err = cerr
		}
		return err
	})
}

func (f fsysClient) makeNode(dir nfs.FH, name string, typ core.FileType) (nfs.FH, error) {
	var attr fsys.FileAttr
	err := f.srv.Do(func(t sched.Task) (err error) {
		attr, err = f.srv.Vol.CreateIn(t, dir.File, name, typ)
		return err
	})
	return nfs.FH{Vol: dir.Vol, File: attr.ID, Gen: attr.Gen}, err
}

func (f fsysClient) create(dir nfs.FH, name string) (nfs.FH, error) {
	return f.makeNode(dir, name, core.TypeRegular)
}

func (f fsysClient) mkdir(dir nfs.FH, name string) (nfs.FH, error) {
	return f.makeNode(dir, name, core.TypeDirectory)
}

func (f fsysClient) lookup(dir nfs.FH, name string) (nfs.FH, error) {
	var attr fsys.FileAttr
	err := f.srv.Do(func(t sched.Task) (err error) {
		attr, err = f.srv.Vol.LookupIn(t, dir.File, name)
		return err
	})
	return nfs.FH{Vol: dir.Vol, File: attr.ID, Gen: attr.Gen}, err
}

func (f fsysClient) rename(dir nfs.FH, from, to string) error {
	return f.srv.Do(func(t sched.Task) error { return f.srv.Vol.RenameIn(t, dir.File, from, dir.File, to) })
}

func (f fsysClient) remove(dir nfs.FH, name string) error {
	return f.srv.Do(func(t sched.Task) error { return f.srv.Vol.RemoveIn(t, dir.File, name) })
}

func (f fsysClient) readdir(dir nfs.FH) ([]nfs.DirEntry, error) {
	var ents []fsys.DirEntry
	err := f.srv.Do(func(t sched.Task) (err error) {
		ents, err = f.srv.Vol.ReaddirByID(t, dir.File)
		return err
	})
	out := make([]nfs.DirEntry, len(ents))
	for i, e := range ents {
		out[i] = nfs.DirEntry{Name: e.Name, ID: e.ID}
	}
	return out, err
}

// opClass groups operations for the latency breakdown.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta"}

// fsysEvery routes every fsysEvery-th operation of the traced run's
// sampling phase to the fsys boundary instead of the wire. It is prime
// to the length of every workload's round (1, 4 and 9 operations), so
// each kind of operation takes its turn.
const fsysEvery = 7

// recorder is one worker's view of the run: it issues each operation
// through the client chosen for it, times it, and keeps the counts,
// latencies and the first verification error.
type recorder struct {
	wire, fsys client // fsys is nil outside the sampling phase

	attempted, failed int64
	bytesRead         int64
	bytesWritten      int64
	// lat[b][c] are the latencies of class c through backend b
	// (0 = wire, 1 = fsys boundary).
	lat [2][numClasses][]time.Duration
	// start is the beginning of the measurement window; win[k] holds
	// the wire latencies of the operations issued in its k-th second.
	start   time.Time
	win     [][]time.Duration
	badness error // first output that did not match the model
	opErr   error // first operation that failed
}

// call issues one operation and reports whether it succeeded.
func (r *recorder) call(class opClass, fn func(c client) error) bool {
	c, b := r.wire, 0
	if r.fsys != nil && r.attempted%fsysEvery == fsysEvery-1 {
		c, b = r.fsys, 1
	}
	r.attempted++
	t0 := time.Now()
	err := fn(c)
	d := time.Since(t0)
	if err != nil {
		r.failed++
		if r.opErr == nil {
			r.opErr = err
		}
		return false
	}
	r.lat[b][class] = append(r.lat[b][class], d)
	if b == 0 {
		k := int(t0.Sub(r.start) / time.Second)
		for len(r.win) <= k {
			r.win = append(r.win, nil)
		}
		r.win[k] = append(r.win[k], d)
	}
	return true
}

// check records a verification failure.
func (r *recorder) check(err error) {
	if err != nil && r.badness == nil {
		r.badness = err
	}
}
