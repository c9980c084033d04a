// Command perfbench is the repository's end-to-end benchmark. It
// assembles the stack through its public constructors — pfs.Open and
// Server.ServeNFS for the real kernel, patsy.Build and
// trace.NewReplayer for the virtual one — drives one workload for a
// fixed wall-clock window, checks every output against a model kept
// apart from the program, and prints one JSON result line.
//
//	perfbench --workload nfs-write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 a separate, profiled run carries the
// per-layer metrics. The sweep and compare subcommands (compare.go)
// repeat runs and judge their spread against the bounds in
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(o runOpts) (*outcome, error){
	"nfs-write":    runNFSWrite,
	"nfs-hot-read": runNFSHotRead,
	"nfs-meta":     runNFSMeta,
	"patsy-replay": runPatsyReplay,
}

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	tmp     string // private scratch directory for images
}

// outcome is what a workload run measured.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string // informational lines printed before the result
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var (
	cleanMu  sync.Mutex
	cleanups []func()
)

// atExit registers f to run on every exit path, normal or failing.
func atExit(f func()) {
	cleanMu.Lock()
	cleanups = append(cleanups, f)
	cleanMu.Unlock()
}

// exit runs the registered clean-ups, newest first, then exits.
// os.Exit skips deferred calls, so every exit goes through here.
func exit(code int) {
	cleanMu.Lock()
	fs := cleanups
	cleanups = nil
	cleanMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
	os.Exit(code)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	exit(1)
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fail("stopped by %v", s)
	}()
	defer func() {
		if r := recover(); r != nil {
			fail("panic: %v", r)
		}
	}()

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			if err := sweepMain(os.Args[2:]); err != nil {
				fail("sweep: %v", err)
			}
			exit(0)
		case "compare":
			ok, err := compareMain(os.Args[2:])
			if err != nil {
				fail("compare: %v", err)
			}
			if !ok {
				exit(1)
			}
			exit(0)
		}
	}

	name := flag.String("workload", "", "workload to run: nfs-write, nfs-hot-read, nfs-meta or patsy-replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measurement window")
	traceFlag := flag.Int("trace", 0, "1 = profiled run reporting the per-layer metrics")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	run, ok := workloads[*name]
	if !ok {
		fail("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fail("bad --seconds or --trace")
	}
	// A run that hangs (a stuck call, a deadlocked server) fails
	// instead of outliving its caller's time limit.
	limit := time.Duration(*seconds*float64(time.Second)) + 150*time.Second
	time.AfterFunc(limit, func() { fail("%s: no result after %v", *name, limit) })
	// Images live in a private directory inside the checkout, removed
	// on every exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail("%v", err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail("%v", err)
	}
	tmp, _ = filepath.Abs(tmp)
	atExit(func() { os.RemoveAll(tmp) })

	out, err := run(runOpts{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, tmp: tmp})
	if err != nil {
		fail("%s: %v", *name, err)
	}
	defs := spec.EndToEnd
	if *traceFlag == 1 {
		defs = spec.PerLayer
	}
	res := resultLine{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fail("%s: metric %s was not measured", *name, d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[d.Name] = true
	}
	var extra []string
	for k := range out.metrics {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		fail("%s: metrics %v are not declared in BENCHMARK.json", *name, extra)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	exit(0)
}
