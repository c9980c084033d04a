package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runRecord is one line of a sweep file.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Notes    []string   `json:"notes,omitempty"`
	Result   resultLine `json:"result"`
}

// sweepMain runs the benchmark repeatedly, one process per run, and
// appends each run's result to a file of JSON lines. It sweeps every
// workload of BENCHMARK.json:
//
//	perfbench sweep -out A.jsonl -runs 10 -seed 1
func sweepMain(args []string) error {
	fl := flag.NewFlagSet("sweep", flag.ContinueOnError)
	outPath := fl.String("out", "", "file of JSON lines to append results to")
	runs := fl.Int("runs", 10, "runs per workload, each with the next seed")
	seed := fl.Int64("seed", 1, "first seed")
	traceFlag := fl.Int("trace", 0, "trace flag passed to every run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *outPath == "" {
		return errors.New("-out is required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// A sweep that is stopped stops the run it is waiting for, and waits
	// for it to remove its images.
	var running atomic.Pointer[os.Process]
	atExit(func() {
		if p := running.Load(); p != nil {
			p.Signal(syscall.SIGTERM)
			p.Wait()
		}
	})
	f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, w := range spec.Workloads {
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", strconv.Itoa(*traceFlag))
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			running.Store(cmd.Process)
			err := cmd.Wait()
			running.Store(nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			stdout := buf.Bytes()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := runRecord{Workload: w.Name, Seed: s, Trace: *traceFlag, Notes: lines[:len(lines)-1]}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.Name, s, err)
			}
			line, _ := json.Marshal(rec)
			if _, err := f.Write(append(line, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: done\n", w.Name, s)
		}
	}
	return f.Close()
}

func readRuns(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) does (the
// exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// summary is one metric of one workload over one set of runs.
type summary struct {
	q1, med, q3 float64
}

func (s summary) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// compareMain prints each metric's median and quartiles per workload
// for one or two sets of runs, and judges them against the bounds in
// BENCHMARK.json: with one set, whether each spread stays within a
// third of its bound; with two, also whether the second set's median
// is within the bound of the first's and the failed shares are equal.
//
//	perfbench compare A.jsonl [B.jsonl]
func compareMain(args []string) (bool, error) {
	if len(args) < 1 || len(args) > 2 {
		return false, errors.New("usage: compare A.jsonl [B.jsonl]")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var sets [][]runRecord
	for _, p := range args {
		rs, err := readRuns(p)
		if err != nil {
			return false, err
		}
		sets = append(sets, rs)
	}
	ok := true
	var pending []string
	problem := func(format string, a ...any) {
		ok = false
		pending = append(pending, fmt.Sprintf(format, a...))
	}
	flush := func() {
		for _, p := range pending {
			fmt.Printf("  FAIL %s\n", p)
		}
		pending = nil
	}

	// Correctness and determinism across every run of every set. The
	// digest check can only fail for a seed that ran more than once,
	// so compare says how many did.
	digests := map[string]string{}
	digestRuns := map[string]int{}
	for si, rs := range sets {
		for _, r := range rs {
			if !r.Result.Correct {
				problem("set %d %s seed %d: outputs incorrect: %v", si+1, r.Workload, r.Seed, r.Notes)
			}
			for _, n := range r.Notes {
				if i := strings.Index(n, " digest "); i >= 0 {
					key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
					d := n[i+len(" digest "):]
					if prev, seen := digests[key]; seen && prev != d {
						problem("%s seed %d: report digest %s differs from %s", r.Workload, r.Seed, d, prev)
					}
					digests[key] = d
					digestRuns[key]++
				}
			}
		}
	}
	flush()
	if len(digestRuns) > 0 {
		repeated := 0
		for _, n := range digestRuns {
			if n > 1 {
				repeated++
			}
		}
		fmt.Printf("digest check: %d of %d seeds ran more than once\n", repeated, len(digestRuns))
		if repeated == 0 {
			fmt.Println("  WARN no seed ran twice, so the digest check did not run; sweep the second set with the same -seed")
		}
	}

	var workloads []string
	seen := map[string]bool{}
	for _, rs := range sets {
		for _, r := range rs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				workloads = append(workloads, r.Workload)
			}
		}
	}
	for _, w := range workloads {
		fmt.Printf("%s\n", w)
		var shares []string
		var sums [][]summary
		defs := spec.EndToEnd
		for si, rs := range sets {
			var att, failed int64
			vals := map[string][]float64{}
			n := 0
			for _, r := range rs {
				if r.Workload != w {
					continue
				}
				if r.Trace == 1 {
					defs = spec.PerLayer
				}
				n++
				att += r.Result.Attempted
				failed += r.Result.Failed
				for name, m := range r.Result.Metrics {
					vals[name] = append(vals[name], m.Value)
				}
			}
			shares = append(shares, fmt.Sprintf("set %d: %d runs, failed %d of %d attempted", si+1, n, failed, att))
			var ss []summary
			for _, d := range defs {
				v := vals[d.Name]
				switch {
				case len(v) < n:
					problem("%s %s: set %d has it in %d of %d runs", w, d.Name, si+1, len(v), n)
				case d.Bound > 0 && n > 1 && allEqual(v):
					problem("%s %s: set %d reads %g on every run", w, d.Name, si+1, v[0])
				}
				q1, q2, q3 := quartiles(v)
				ss = append(ss, summary{q1, q2, q3})
			}
			sums = append(sums, ss)
		}
		for _, s := range shares {
			fmt.Printf("  %s\n", s)
		}
		for i, d := range defs {
			fmt.Printf("  %-28s %-7s", d.Name, d.Unit)
			for si := range sums {
				s := sums[si][i]
				fmt.Printf("  med %-12.5g q1 %-12.5g q3 %-12.5g spread %5.1f%%", s.med, s.q1, s.q3, 100*s.spread())
			}
			verdict := ""
			if d.Bound > 0 {
				for si := range sums {
					sp := sums[si][i].spread()
					switch {
					case sp > d.Bound:
						problem("%s %s: set %d spread %.1f%% exceeds the bound %.0f%%", w, d.Name, si+1, 100*sp, 100*d.Bound)
					case sp > d.Bound/3:
						verdict += fmt.Sprintf(" [set %d spread above a third of the bound]", si+1)
					}
				}
				if len(sums) == 2 {
					a, b := sums[0][i].med, sums[1][i].med
					worse := ratio(b-a, a)
					if d.Better == "higher" {
						worse = ratio(a-b, a)
					}
					verdict += fmt.Sprintf("  change %+.1f%% worse (bound %.0f%%)", 100*worse, 100*d.Bound)
					if worse > d.Bound {
						problem("%s %s: second median worse by %.1f%%, beyond the bound %.0f%%", w, d.Name, 100*worse, 100*d.Bound)
					}
				}
			}
			fmt.Printf("%s\n", verdict)
			flush()
		}
		if len(sets) == 2 && !sameFailedShare(sets[0], sets[1], w) {
			problem("%s: failed share differs between the sets", w)
		}
		flush()
	}
	if ok {
		fmt.Println("verdict: agree")
	} else {
		fmt.Println("verdict: DISAGREE")
	}
	return ok, nil
}

func sameFailedShare(a, b []runRecord, w string) bool {
	share := func(rs []runRecord) (int64, int64) {
		var att, failed int64
		for _, r := range rs {
			if r.Workload == w {
				att += r.Result.Attempted
				failed += r.Result.Failed
			}
		}
		return failed, att
	}
	fa, aa := share(a)
	fb, ab := share(b)
	return fa*ab == fb*aa
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
