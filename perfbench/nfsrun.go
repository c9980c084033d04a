package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/nfs"
	"repro/internal/pfs"
)

// The NFS workloads run the real server with its defaults — one LFS
// stack, the UPS flush policy — on a 32 MiB image with a 4 MiB cache,
// served on a loopback port the kernel picks.
const (
	imageBlocks = 8192 // 32 MiB
	cacheBlocks = 1024 // 4 MiB
	// setupRounds is how many set-ups a run times before its window,
	// and again after it; setup_s is the median of all of them, so a
	// burst of load on the machine at one end of the run moves one
	// group rather than the median.
	setupRounds = 4
	// fsysPhase is how long the traced run samples the fsys boundary
	// after its profiled window.
	fsysPhase = 3 * time.Second
)

// nfsState is the model of one NFS workload's namespace and contents,
// kept by the benchmark apart from the program.
type nfsState interface {
	// prefill builds the working set.
	prefill(c client, root nfs.FH) error
	// round issues one whole round of worker w's operation mix.
	round(w int, r *recorder)
	// verifyAll reads the whole working set back and checks it.
	verifyAll(c client, root nfs.FH) error
}

func runNFSWrite(o runOpts) (*outcome, error) {
	return runNFS(o, func(seed int64, workers int) nfsState {
		// Twice the cache: 2048 blocks in 32 files.
		return newDataState(seed, workers, 2*cacheBlocks/fileBlocks, false)
	})
}

func runNFSHotRead(o runOpts) (*outcome, error) {
	return runNFS(o, func(seed int64, workers int) nfsState {
		// Half the cache: 512 blocks in 8 files.
		return newDataState(seed, workers, cacheBlocks/2/fileBlocks, true)
	})
}

func runNFSMeta(o runOpts) (*outcome, error) {
	return runNFS(o, func(seed int64, workers int) nfsState { return newMetaState(seed, workers) })
}

// connections is the number of client connections: at most nproc, a
// power of two so the working set splits evenly, and at most 4. Each
// carries two workers, so at most two calls are in flight on it.
func connections() int {
	n := 1
	for n*2 <= runtime.NumCPU() && n*2 <= 4 {
		n *= 2
	}
	return n
}

// nfsEnv is one server on one image.
type nfsEnv struct {
	cfg  pfs.Config
	srv  *pfs.Server
	addr string
}

func openEnv(cfg pfs.Config) (*nfsEnv, error) {
	srv, err := pfs.Open(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &nfsEnv{cfg: cfg, srv: srv, addr: addr}, nil
}

// dialRoot opens a plain connection and mounts the volume.
func (e *nfsEnv) dialRoot() (*nfs.Client, nfs.FH, error) {
	c, err := nfs.Dial(e.addr)
	if err != nil {
		return nil, nfs.FH{}, err
	}
	root, _, err := c.Mount(1)
	if err != nil {
		c.Close()
		return nil, nfs.FH{}, err
	}
	return c, root, nil
}

// verify reads the working set back over a fresh connection.
func (e *nfsEnv) verify(st nfsState) error {
	c, root, err := e.dialRoot()
	if err != nil {
		return err
	}
	defer c.Close()
	return st.verifyAll(wireClient{c}, root)
}

// setup formats a fresh image, builds the working set over NFS and
// syncs it, returning the time all of that took.
func setupNFS(o runOpts, st nfsState, i int) (*nfsEnv, time.Duration, error) {
	cfg := pfs.Config{
		Path:        filepath.Join(o.tmp, fmt.Sprintf("img%d", i)),
		Blocks:      imageBlocks,
		CacheBlocks: cacheBlocks,
		Seed:        o.seed,
	}
	// Collect the previous set-up's garbage first, so each set-up is
	// timed from the same start.
	runtime.GC()
	t0 := time.Now()
	e, err := openEnv(cfg)
	if err != nil {
		return nil, 0, err
	}
	c, root, err := e.dialRoot()
	if err == nil {
		err = st.prefill(wireClient{c}, root)
		c.Close()
	}
	if err == nil {
		err = e.srv.Sync()
	}
	d := time.Since(t0)
	if err != nil {
		e.srv.Close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return e, d, nil
}

func runNFS(o runOpts, newState func(seed int64, workers int) nfsState) (*outcome, error) {
	conns := connections()
	workers := 2 * conns
	out := &outcome{correct: true, metrics: map[string]float64{}}
	bad := func(what string, err error) {
		if err != nil {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("verification failed (%s): %v", what, err))
		}
	}

	var (
		env    *nfsEnv
		st     nfsState
		setups []float64
	)
	for i := 0; i < setupRounds; i++ {
		if env != nil {
			if err := env.srv.Shutdown(); err != nil {
				return nil, err
			}
			os.Remove(env.cfg.Path)
		}
		st = newState(o.seed, workers)
		var d time.Duration
		var err error
		if env, d, err = setupNFS(o, st, i); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	// The first read-back checks the prefill and warms the cache.
	bad("after set-up", env.verify(st))

	clients := make([]*nfs.Client, conns)
	for i := range clients {
		c, err := nfs.DialPipeline(env.addr, 2)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	newRecorders := func(fsys bool) []*recorder {
		recs := make([]*recorder, workers)
		for w := range recs {
			recs[w] = &recorder{wire: wireClient{clients[w%conns]}}
			if fsys {
				recs[w].fsys = fsysClient{env.srv}
			}
		}
		return recs
	}

	// The measurement window issues every call over the wire; in the
	// traced run it is profiled and the counters are read at both ends.
	recs := newRecorders(false)
	var prof cpuProfile
	before := snapshotLayers(env.srv.Cache, env.srv.Set, env.srv.AllDrivers(), env.srv.Tracer)
	if o.traced {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	window, driveErr := drive(st, recs, time.Duration(o.seconds*float64(time.Second)))
	if o.traced {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	after := snapshotLayers(env.srv.Cache, env.srv.Set, env.srv.AllDrivers(), env.srv.Tracer)
	if driveErr != nil {
		return nil, driveErr
	}
	// The traced run then samples the fsys boundary in a phase of its
	// own, unprofiled, so the window above keeps the untraced run's
	// mix and its ops/s differs from ops_per_s by the profiler alone.
	var sampled []*recorder
	if o.traced {
		sampled = newRecorders(true)
		if _, err := drive(st, sampled, fsysPhase); err != nil {
			return nil, err
		}
	}
	for _, c := range clients {
		c.Close()
	}

	// Sync, read everything back, remount the image cleanly, and read
	// it back again. The sync keeps the read-back clear of the cleaner
	// (see README.md, "Left out").
	if err := env.srv.Sync(); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	bad("after the run", env.verify(st))
	t0 := time.Now()
	if err := env.srv.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	env2, err := openEnv(env.cfg)
	remount := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	bad("after remount", env2.verify(st))
	if err := env2.srv.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown after remount: %w", err)
	}
	// The set-ups after the run come after the peak is read, so they do
	// not add to it.
	peakRSS := peakRSSMiB()
	for i := 0; i < setupRounds; i++ {
		e, d, err := setupNFS(o, newState(o.seed, workers), setupRounds+i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if err := e.srv.Shutdown(); err != nil {
			return nil, err
		}
		os.Remove(e.cfg.Path)
	}

	// Totals over the window, and over the sampling phase.
	var (
		ops, bytesW, bytesR int64
		wins                [][]time.Duration
		wire                [numClasses][]time.Duration
	)
	for _, r := range append(recs, sampled...) {
		out.attempted += r.attempted
		out.failed += r.failed
		if r.opErr != nil {
			out.notes = append(out.notes, fmt.Sprintf("operation failed: %v", r.opErr))
		}
		bad("during the run", r.badness)
	}
	for _, r := range recs {
		ops += r.attempted - r.failed
		bytesR += r.bytesRead
		bytesW += r.bytesWritten
		for c := opClass(0); c < numClasses; c++ {
			wire[c] = append(wire[c], r.lat[0][c]...)
		}
		for k, w := range r.win {
			for len(wins) <= k {
				wins = append(wins, nil)
			}
			wins[k] = append(wins[k], w...)
		}
	}
	m := out.metrics
	if !o.traced {
		m["ops_per_s"] = float64(ops) / window.Seconds()
		m["mb_per_s"] = float64(bytesR+bytesW) / (1 << 20) / window.Seconds()
		// Latency quantiles are taken per second of the window and the
		// median over the whole seconds is reported, so one stalled
		// second does not decide the run.
		var p50s, p90s []float64
		for k, w := range wins {
			if float64(k+1) <= o.seconds && len(w) > 0 {
				p50s = append(p50s, ms(quantile(w, 0.50)))
				p90s = append(p90s, ms(quantile(w, 0.90)))
			}
		}
		m["p50_ms"] = median(p50s)
		m["p90_ms"] = median(p90s)
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = peakRSS
		return out, nil
	}

	m["bench.traced_ops_per_s"] = float64(ops) / window.Seconds()
	m["pfs.remount_s"] = remount.Seconds()
	layerMetrics(before, after, bytesW, m)
	prof.metrics(ops, m)
	out.notes = append(out.notes, prof.topModules())
	var sWire, sFsys [numClasses][]time.Duration
	for _, r := range sampled {
		for c := opClass(0); c < numClasses; c++ {
			sWire[c] = append(sWire[c], r.lat[0][c]...)
			sFsys[c] = append(sFsys[c], r.lat[1][c]...)
		}
	}
	// nfs.self_us: per class, the mean wire time minus the mean time of
	// the same operation at the fsys boundary, both from the sampling
	// phase, weighted by how many wire calls of the class ran there.
	var selfSum float64
	var selfN int
	for c := opClass(0); c < numClasses; c++ {
		name := classNames[c]
		m["nfs."+name+"_p50_ms"] = ms(quantile(wire[c], 0.50))
		m["nfs."+name+"_p99_ms"] = ms(quantile(wire[c], 0.99))
		m["fsys."+name+"_us"] = meanUS(sFsys[c])
		if len(sWire[c]) > 0 && len(sFsys[c]) > 0 {
			selfSum += float64(len(sWire[c])) * (meanUS(sWire[c]) - meanUS(sFsys[c]))
			selfN += len(sWire[c])
		}
	}
	m["nfs.self_us"] = ratio(selfSum, float64(selfN))
	return out, nil
}

// drive runs whole rounds on every worker until d has passed, and
// returns how long the window lasted.
func drive(st nfsState, recs []*recorder, d time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	for _, r := range recs {
		r.start = start
	}
	var wg sync.WaitGroup
	panics := make(chan any, len(recs))
	for w := range recs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			for time.Now().Before(deadline) {
				st.round(w, recs[w])
			}
		}(w)
	}
	wg.Wait()
	window := time.Since(start)
	select {
	case p := <-panics:
		return 0, fmt.Errorf("worker panic: %v", p)
	default:
	}
	return window, nil
}

func meanUS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum)/1e3, float64(len(ds)))
}
