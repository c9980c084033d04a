package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Each layer is measured from outside: counters the program already
// exposes are snapshotted at both ends of the measurement window, and
// a CPU profile of the window is attributed to modules (see moduleOf).

// setValue is one source of a stats.Set: a counter (n only) or a
// moments/histogram summary (n samples with the given mean).
type setValue struct {
	n    int64
	mean float64
}

// parseSet reads the counters and summaries a stats.Set renders:
// "name=value" lines and "name: n=N mean=M ..." headers.
func parseSet(set *stats.Set) map[string]setValue {
	out := map[string]setValue{}
	sc := bufio.NewScanner(strings.NewReader(set.Render()))
	for sc.Scan() {
		line := sc.Text()
		if name, rest, ok := strings.Cut(line, ": n="); ok && !strings.ContainsAny(name, " \t") {
			f := strings.Fields(rest)
			if len(f) < 2 || !strings.HasPrefix(f[1], "mean=") {
				continue
			}
			n, err1 := strconv.ParseInt(f[0], 10, 64)
			m, err2 := strconv.ParseFloat(strings.TrimPrefix(f[1], "mean="), 64)
			if err1 == nil && err2 == nil {
				out[name] = setValue{n: n, mean: m}
			}
			continue
		}
		if name, v, ok := strings.Cut(line, "="); ok && !strings.ContainsAny(name, " \t:") {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[name] = setValue{n: n}
			}
		}
	}
	return out
}

// layerSnap is one snapshot of every counter the per-layer metrics
// read.
type layerSnap struct {
	cache                  [8]int64
	set                    map[string]setValue
	devReads, devWrites    int64
	devBlocksR, devBlocksW int64
	waitN, svcN            int64
	waitSum, svcSum        float64
	stages                 [3][]int64 // tracer stage histogram buckets
	stageN                 [3]int64
	stageSum               [3]time.Duration
	stageBounds            []int64
}

func snapshotLayers(c *cache.Cache, set *stats.Set, drvs []device.Driver, tr *telemetry.Tracer) layerSnap {
	cs := c.CacheStats()
	s := layerSnap{
		cache: [8]int64{
			cs.Lookups.Value(), cs.Hits.Value(), cs.ReadaheadFills.Value(), cs.Evictions.Value(),
			cs.PressureWaits.Value(), cs.FlushedBlocks.Value(), cs.FlushJobs.Value(), cs.SavedWrites.Value(),
		},
		set: parseSet(set),
	}
	for _, d := range drvs {
		ds := d.DriverStats()
		s.devReads += ds.Reads.Value()
		s.devWrites += ds.Writes.Value()
		s.devBlocksR += ds.BlocksRead.Value()
		s.devBlocksW += ds.BlocksWritten.Value()
		n, m := ds.WaitMS.N(), ds.WaitMS.Mean()
		s.waitN += n
		s.waitSum += float64(n) * m
		n, m = ds.ServiceMS.N(), ds.ServiceMS.Mean()
		s.svcN += n
		s.svcSum += float64(n) * m
	}
	if tr != nil {
		for i, st := range telemetry.Stages() {
			s.stageBounds, s.stages[i], s.stageN[i], s.stageSum[i] = tr.StageHist(st).Snapshot()
		}
	}
	return s
}

// setDelta sums, over every set source whose name ends in suffix, the
// change in its count and in its count*mean.
func setDelta(a, b map[string]setValue, suffix string) (dn int64, dsum float64) {
	for name, v := range b {
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		u := a[name]
		dn += v.n - u.n
		dsum += float64(v.n)*v.mean - float64(u.n)*u.mean
	}
	return dn, dsum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns two snapshots into the counter-based per-layer
// metrics. userBytesWritten is what clients wrote in the window.
func layerMetrics(a, b layerSnap, userBytesWritten int64, m map[string]float64) {
	d := func(i int) float64 { return float64(b.cache[i] - a.cache[i]) }
	m["cache.hit_rate"] = ratio(d(1), d(0))
	m["cache.readahead_fills"] = d(2)
	m["cache.evictions"] = d(3)
	m["cache.pressure_waits"] = d(4)
	m["cache.flushed_blocks"] = d(5)
	m["cache.flush_jobs"] = d(6)
	m["cache.saved_writes"] = d(7)

	for _, c := range []string{"segs_written", "partial_segs", "segs_cleaned", "live_blocks_copied"} {
		n, _ := setDelta(a.set, b.set, "."+c)
		m["lfs."+c] = float64(n)
	}
	n, sum := setDelta(a.set, b.set, ".cleaned_utilization")
	m["lfs.cleaned_utilization"] = ratio(sum, float64(n))
	logBlocks, _ := setDelta(a.set, b.set, ".log_blocks_written")
	m["lfs.write_cost"] = ratio(float64(logBlocks), d(5))

	m["device.reads"] = float64(b.devReads - a.devReads)
	m["device.writes"] = float64(b.devWrites - a.devWrites)
	m["device.blocks_per_request"] = ratio(float64(b.devBlocksR-a.devBlocksR+b.devBlocksW-a.devBlocksW),
		float64(b.devReads-a.devReads+b.devWrites-a.devWrites))
	m["device.wait_ms"] = ratio(b.waitSum-a.waitSum, float64(b.waitN-a.waitN))
	m["device.service_ms"] = ratio(b.svcSum-a.svcSum, float64(b.svcN-a.svcN))
	m["device.bytes_per_user_byte"] = ratio(float64(b.devBlocksW-a.devBlocksW)*blockSize, float64(userBytesWritten))

	n, sum = setDelta(a.set, b.set, "nfs.pipeline_depth")
	m["nfs.pipeline_depth_mean"] = ratio(sum, float64(n))

	for i, st := range telemetry.Stages() {
		var delta []int64
		if b.stages[i] != nil {
			delta = make([]int64, len(b.stages[i]))
			for j := range delta {
				delta[j] = b.stages[i][j]
				if a.stages[i] != nil {
					delta[j] -= a.stages[i][j]
				}
			}
		}
		m["telemetry."+st.String()+"_p50_us"] = bucketQuantile(b.stageBounds, delta, 0.5) / 1e3
		m["telemetry."+st.String()+"_p99_us"] = bucketQuantile(b.stageBounds, delta, 0.99) / 1e3
		m["telemetry."+st.String()+"_mean_us"] = ratio(float64(b.stageSum[i]-a.stageSum[i])/1e3, float64(b.stageN[i]-a.stageN[i]))
	}
}

// bucketQuantile interpolates the q-quantile inside the owning bucket
// of a log histogram's bucket counts, as stats.LogHistogram does. The
// tracer records every stage of every operation, a stage the operation
// never entered as zero, so the first bucket mixes idle stages with
// short ones; a quantile that falls in it cannot be placed and reads 0.
func bucketQuantile(bounds, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(counts)-1 {
			if i == 0 {
				return 0
			}
			lo := int64(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo
			if i < len(bounds) {
				hi = bounds[i]
			}
			return float64(lo) + (rank-cum)/float64(c)*float64(hi-lo)
		}
		cum = next
	}
	return float64(bounds[len(bounds)-1])
}

// cpuModules are the modules CPU time is reported for.
var cpuModules = []string{
	"nfs", "xdr", "fsys", "cache", "lfs", "volume", "device", "layout", "core",
	"stats", "telemetry", "sched", "trace", "disk", "bus", "pfs", "patsy",
	"syscall", "bench", "runtime", "other",
}

// moduleOf names the module a package's CPU time is charged to. A
// package of this repository is its own module ("other" if not listed
// in cpuModules), the benchmark's own code is "bench", and the OS-call
// packages are "syscall". Every other package — the Go runtime's copy,
// allocation and map helpers, and the standard library — returns "",
// so its time is charged to its nearest caller that has a module; what
// has none (garbage collection, the scheduler) is "runtime".
func moduleOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		m, _, _ := strings.Cut(rest, "/")
		for _, k := range cpuModules {
			if k == m {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "main", pkg == "repro/perfbench":
		return "bench"
	case pkg == "syscall", pkg == "os", pkg == "net", pkg == "internal/poll", strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return ""
}

// cpuProfile accumulates CPU time by module over one or more
// profiled windows.
type cpuProfile struct {
	buf   bytes.Buffer
	byMod map[string]int64
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	byMod, err := cpuByModule(p.buf.Bytes(), moduleOf)
	if err != nil {
		return err
	}
	if p.byMod == nil {
		p.byMod = map[string]int64{}
	}
	for mod, ns := range byMod {
		if mod == "" {
			mod = "runtime"
		}
		p.byMod[mod] += ns
	}
	return nil
}

// metrics adds "<module>.cpu_us_per_op" for every module, and the
// total, to m.
func (p *cpuProfile) metrics(ops int64, m map[string]float64) {
	var total int64
	for _, mod := range cpuModules {
		m[mod+".cpu_us_per_op"] = ratio(float64(p.byMod[mod])/1e3, float64(ops))
		total += p.byMod[mod]
	}
	m["total.cpu_us_per_op"] = ratio(float64(total)/1e3, float64(ops))
}

// topModules renders the attribution as a one-line share list.
func (p *cpuProfile) topModules() string {
	var total int64
	mods := make([]string, 0, len(p.byMod))
	for mod, ns := range p.byMod {
		total += ns
		mods = append(mods, mod)
	}
	sort.Slice(mods, func(i, j int) bool { return p.byMod[mods[i]] > p.byMod[mods[j]] })
	var b strings.Builder
	b.WriteString("cpu by module:")
	for _, mod := range mods {
		fmt.Fprintf(&b, " %s=%.1f%%", mod, 100*ratio(float64(p.byMod[mod]), float64(total)))
	}
	return b.String()
}

// peakRSSMiB reads the process's peak resident set (VmHWM); where
// /proc is absent it falls back to the Go runtime's view.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(v)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of ds (sorted in place), linearly
// interpolated between the closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	i := int(pos)
	if i+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	return ds[i] + time.Duration((pos-float64(i))*float64(ds[i+1]-ds[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
