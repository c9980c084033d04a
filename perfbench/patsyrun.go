package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/patsy"
	"repro/internal/sched"
	"repro/internal/trace"
)

// patsy-replay: the simulator on the virtual kernel, with the paper's
// topology (3 buses, 10 disks, 14 LFS volumes, a 64 MB cache) and the
// UPS write policy, replays a generated Sprite-like trace. A round
// generates a trace, builds and initialises the system and replays the
// whole trace; a run repeats rounds, each with its own trace, for its
// window.
const (
	patsyProfile  = "1b"
	patsyTraceLen = 30 * time.Minute // simulated time per round
	// The latency samples are the wall time to replay each successive
	// patsyBatch records, once the first patsyWarm of simulated time
	// has filled the cache. The replay is sampled every patsyTick of
	// simulated time and batch ends are interpolated between samples.
	patsyBatch = 100
	patsyWarm  = 10 * time.Minute
	patsyTick  = 100 * time.Millisecond
	// patsySetups is about how many set-ups a run times; setup_s is
	// their median. Each sets up its own trace, because the
	// cost of generating one grows with its length, which the seed
	// decides (about 150k to 180k records): one trace per set-up keeps
	// setup_s from following a single trace's length.
	patsySetups = 15
	// patsyRoundSeconds is about how long a round takes on a 2-core
	// machine; a run has --seconds / patsyRoundSeconds rounds, at least
	// one.
	patsyRoundSeconds = 10
	// patsySetupSeeds offsets the seeds of the timed set-ups from those
	// of the rounds (s·1000003 + round).
	patsySetupSeeds = 1000
)

// patsyRound is one round's measurements.
type patsyRound struct {
	records int64
	errors  int64
	replay  time.Duration
	bytes   int64 // simulated payload bytes through fsys during replay
	// batches[k] holds the wall time of each batch of records that
	// ended in second k of the replay; seconds before firstSec are
	// not whole seconds after the warm-up.
	batches   [][]time.Duration
	firstSec  int
	before    layerSnap
	after     layerSnap
	userBytes int64 // simulated bytes written through fsys
	digest    string
	check     error
}

func runPatsyReplay(o runOpts) (*outcome, error) {
	out := &outcome{correct: true, metrics: map[string]float64{}}
	var (
		prof          cpuProfile
		rounds        []patsyRound
		before, after layerSnap
	)
	// The number of rounds depends on --seconds alone, so a seed always
	// replays the same traces.
	n := max(1, int(o.seconds/patsyRoundSeconds+0.5))
	// The timed set-ups are spread over the run, a group before each
	// round and one after the last, so that a burst of load on the
	// machine moves a group rather than the median.
	var setups []float64
	timeSetups := func() error {
		for i := 0; i < max(1, patsySetups/(n+1)); i++ {
			d, err := timePatsySetup(o.seed*1_000_003 + patsySetupSeeds + int64(len(setups)))
			if err != nil {
				return fmt.Errorf("patsy: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	for len(rounds) < n {
		if err := timeSetups(); err != nil {
			return nil, err
		}
		// Each round replays its own trace, so a run averages over
		// several traces rather than leaning on one.
		r, err := runPatsyRound(o.seed*1_000_003+int64(len(rounds)), o.traced, &prof)
		if err != nil {
			return nil, err
		}
		if r.check != nil && out.correct {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("verification failed (round %d): %v", len(rounds)+1, r.check))
		}
		before.add(r.before)
		after.add(r.after)
		rounds = append(rounds, r)
	}
	peakRSS := peakRSSMiB()
	if err := timeSetups(); err != nil {
		return nil, err
	}
	// One seed must always give the same simulated reports; the
	// comparer checks the digest of each seed's first round across
	// runs.
	out.notes = append(out.notes, fmt.Sprintf("patsy-replay seed %d digest %s", o.seed, rounds[0].digest))

	var (
		records, bytes, userBytes int64
		replay                    time.Duration
		p50s, p90s                []float64
	)
	for _, r := range rounds {
		out.attempted += r.records
		out.failed += r.errors
		records += r.records - r.errors
		bytes += r.bytes
		userBytes += r.userBytes
		replay += r.replay
		// Latency quantiles are taken per whole second of the replay
		// and the median over those seconds is reported, as for the
		// NFS workloads.
		for k := r.firstSec; k < len(r.batches) && k+1 <= int(r.replay/time.Second); k++ {
			if len(r.batches[k]) > 0 {
				p50s = append(p50s, ms(quantile(r.batches[k], 0.50)))
				p90s = append(p90s, ms(quantile(r.batches[k], 0.90)))
			}
		}
	}
	m := out.metrics
	if !o.traced {
		m["ops_per_s"] = float64(records) / replay.Seconds()
		m["mb_per_s"] = float64(bytes) / (1 << 20) / replay.Seconds()
		m["p50_ms"] = median(p50s)
		m["p90_ms"] = median(p90s)
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = peakRSS
		return out, nil
	}
	m["bench.traced_ops_per_s"] = float64(records) / replay.Seconds()
	layerMetrics(before, after, userBytes, m)
	prof.metrics(out.attempted, m)
	out.notes = append(out.notes, prof.topModules())
	// The simulator has no wire, no fsys-boundary sampling, no tracer
	// and no remount: those layers do no work here.
	for c := opClass(0); c < numClasses; c++ {
		m["nfs."+classNames[c]+"_p50_ms"] = 0
		m["nfs."+classNames[c]+"_p99_ms"] = 0
		m["fsys."+classNames[c]+"_us"] = 0
	}
	m["nfs.self_us"] = 0
	m["pfs.remount_s"] = 0
	return out, nil
}

// buildPatsy generates a round's trace and builds the system for it.
// The system still needs Init, on a kernel task.
func buildPatsy(seed int64) ([]trace.Record, *patsy.System, error) {
	recs := withoutStats(trace.Generate(trace.Profiles()[patsyProfile], seed, patsyTraceLen))
	sys, err := patsy.Build(patsy.DefaultConfig(seed, cache.UPS()))
	return recs, sys, err
}

// withoutStats leaves the stat records out of a trace. The replayer
// answers a stat of a missing pre-existing file by creating the file
// and stating it again; when another client deletes the file in
// between, the stat fails. That happens on some seeds and not on
// others (README.md, "Left out").
func withoutStats(recs []trace.Record) []trace.Record {
	out := recs[:0]
	for _, r := range recs {
		if r.Op != trace.OpStat {
			out = append(out, r)
		}
	}
	return out
}

// timePatsySetup times one whole set-up — trace generation, build and
// init — of a trace and system that are then dropped.
func timePatsySetup(seed int64) (time.Duration, error) {
	runtime.GC() // start each timed set-up from the same heap
	t0 := time.Now()
	_, sys, err := buildPatsy(seed)
	if err != nil {
		return 0, err
	}
	var initErr error
	sys.K.Go("bench.init", func(t sched.Task) {
		defer sys.K.Stop()
		initErr = sys.Init(t)
	})
	if err := sys.K.Run(); err != nil {
		return 0, err
	}
	return time.Since(t0), initErr
}

// runPatsyRound replays one trace.
func runPatsyRound(seed int64, traced bool, prof *cpuProfile) (patsyRound, error) {
	var r patsyRound
	runtime.GC()
	recs, sys, err := buildPatsy(seed)
	if err != nil {
		return r, fmt.Errorf("patsy: %w", err)
	}
	rep := trace.NewReplayer(sys.FS, recs)
	fss := sys.FS.FSStats()
	var bytes0, written0 int64
	var runErr error
	sys.K.Go("bench.main", func(t sched.Task) {
		defer sys.K.Stop()
		if runErr = sys.Init(t); runErr != nil {
			return
		}
		bytes0 = fss.BytesRead.Value() + fss.BytesWritten.Value()
		written0 = fss.BytesWritten.Value()
		r.before = snapshotLayers(sys.Cache, sys.Set, sys.Drivers, nil)
		if traced {
			if runErr = prof.start(); runErr != nil {
				return
			}
		}
		done := false
		// The sampler runs beside the replay and cuts the completed
		// records into batches of patsyBatch.
		sys.K.Go("bench.sampler", func(tt sched.Task) {
			w0 := time.Now()
			var lastW, batchStart time.Duration
			var lastN int64
			next := int64(patsyBatch)
			for !done {
				tt.Sleep(patsyTick)
				w, n := time.Since(w0), int64(rep.Result().Ops)
				for ; n >= next; next += patsyBatch {
					end := lastW + time.Duration(float64(w-lastW)*float64(next-lastN)/float64(n-lastN))
					if time.Duration(sys.K.Now()) > patsyWarm {
						k := int(end / time.Second)
						if r.batches == nil {
							r.firstSec = k + 1
						}
						for len(r.batches) <= k {
							r.batches = append(r.batches, nil)
						}
						r.batches[k] = append(r.batches[k], end-batchStart)
					}
					batchStart = end
				}
				lastW, lastN = w, n
			}
		})
		w0 := time.Now()
		rep.Run(t)
		r.replay = time.Since(w0)
		done = true
		if traced {
			runErr = prof.stop()
		}
	})
	if err := sys.K.Run(); err != nil {
		return r, fmt.Errorf("patsy: %w", err)
	}
	if runErr != nil {
		return r, fmt.Errorf("patsy: %w", runErr)
	}
	r.after = snapshotLayers(sys.Cache, sys.Set, sys.Drivers, nil)
	r.bytes = fss.BytesRead.Value() + fss.BytesWritten.Value() - bytes0
	r.userBytes = fss.BytesWritten.Value() - written0
	res := rep.Result()
	r.records = int64(len(recs))
	r.errors = int64(res.Errors)
	r.check = checkReplay(sys, recs, res)
	r.digest = reportDigest(sys, recs, res)
	return r, nil
}

// checkReplay checks a finished replay against the generated trace:
// every record replayed exactly once without error, the simulated
// clock at or past the last record, and at least the traced write
// bytes written through fsys.
func checkReplay(sys *patsy.System, recs []trace.Record, res *trace.Result) error {
	if res.Ops+res.Errors != len(recs) {
		return fmt.Errorf("%d records replayed (%d ok, %d failed), want %d", res.Ops+res.Errors, res.Ops, res.Errors, len(recs))
	}
	var last time.Duration
	var wrote int64
	for _, rec := range recs {
		if rec.T > last {
			last = rec.T
		}
		if rec.Op == trace.OpWrite {
			wrote += rec.Len
		}
	}
	if now := time.Duration(sys.K.Now()); now < last {
		return fmt.Errorf("simulated clock ended at %v, before the last record at %v", now, last)
	}
	if got := sys.FS.FSStats().BytesWritten.Value(); got < wrote {
		return fmt.Errorf("fsys wrote %d bytes, fewer than the trace's %d", got, wrote)
	}
	return nil
}

// reportDigest hashes the simulated report: everything in it is
// simulated, so one seed must always give the same digest.
func reportDigest(sys *patsy.System, recs []trace.Record, res *trace.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "records=%d ops=%d errors=%d now=%d\n", len(recs), res.Ops, res.Errors, sys.K.Now())
	fmt.Fprintf(h, "mean=%d p50=%d p90=%d p99=%d\n", res.Overall.Mean(),
		res.Overall.Quantile(0.5), res.Overall.Quantile(0.9), res.Overall.Quantile(0.99))
	ops := make([]int, 0, len(res.PerOp))
	for op := range res.PerOp {
		ops = append(ops, int(op))
	}
	sort.Ints(ops)
	for _, op := range ops {
		d := res.PerOp[trace.Op(op)]
		fmt.Fprintf(h, "%v n=%d mean=%d\n", trace.Op(op), d.N(), d.Mean())
	}
	cs, fss := sys.Cache.CacheStats(), sys.FS.FSStats()
	fmt.Fprintf(h, "hits=%d flushed=%d saved=%d read=%d written=%d\n", cs.Hits.Value(),
		cs.FlushedBlocks.Value(), cs.SavedWrites.Value(), fss.BytesRead.Value(), fss.BytesWritten.Value())
	for _, d := range sys.Drivers {
		ds := d.DriverStats()
		fmt.Fprintf(h, "%s r=%d w=%d br=%d bw=%d\n", d.Name(), ds.Reads.Value(), ds.Writes.Value(),
			ds.BlocksRead.Value(), ds.BlocksWritten.Value())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// add sums another snapshot into s, so several rounds' windows can be
// reported as one.
func (s *layerSnap) add(o layerSnap) {
	for i := range s.cache {
		s.cache[i] += o.cache[i]
	}
	if s.set == nil {
		s.set = map[string]setValue{}
	}
	for k, v := range o.set {
		u := s.set[k]
		sum := float64(u.n)*u.mean + float64(v.n)*v.mean
		u.n += v.n
		u.mean = ratio(sum, float64(u.n))
		s.set[k] = u
	}
	s.devReads += o.devReads
	s.devWrites += o.devWrites
	s.devBlocksR += o.devBlocksR
	s.devBlocksW += o.devBlocksW
	s.waitN += o.waitN
	s.svcN += o.svcN
	s.waitSum += o.waitSum
	s.svcSum += o.svcSum
}
