package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestCPUByModuleChargesTheBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, err := cpuByModule(buf.Bytes(), moduleOf)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range by {
		total += ns
	}
	if total == 0 {
		t.Skip("no samples collected")
	}
	if share := float64(by["bench"]) / float64(total); share < 0.5 {
		t.Fatalf("bench got %.0f%% of %v CPU, want most of it: %v", 100*share, time.Duration(total), by)
	}
}

func TestModuleOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"repro/internal/lfs":    "lfs",
		"repro/internal/nfs":    "nfs",
		"repro/internal/ffs":    "other",
		"main":                  "bench",
		"internal/poll":         "syscall",
		"runtime":               "",
		"sort":                  "",
		"internal/runtime/maps": "",
	} {
		if got := moduleOf(pkg); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", pkg, got, want)
		}
	}
	for sym, want := range map[string]string{
		"repro/internal/lfs.(*LFS).cleanLocked": "repro/internal/lfs",
		"runtime.mallocgc":                      "runtime",
		"main.spin":                             "main",
		"internal/runtime/maps.(*Iter).Next":    "internal/runtime/maps",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
