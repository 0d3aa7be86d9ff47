package main

import (
	"math"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces` output in the toolchain's
// format: a header, then one block per distinct stack, leaf first, with
// optional label lines before the value line.
const cannedTraces = `File: perfbench
Build ID: c7d04ad633ae72e7e94adcf67bb1a349dad7284a
Type: cpu
Time: 2026-10-17 02:08:33 UTC
Duration: 2.31s, Total samples = 100ms (4.33%)
-----------+-------------------------------------------------------
      40ms   repro/internal/sim.(*entry).fire
             repro/internal/sim.(*Engine).Step
             repro/internal/exp.(*System).RunContext
             main.runPass
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess2_fast64
             repro/internal/cache.(*Cache).lookup
             repro/internal/cache.lookupEvent
             repro/internal/sim.(*entry).fire
-----------+-------------------------------------------------------
       6ms   repro/internal/mem.(*Request).Complete (inline)
             repro/internal/cache.(*Cache).fill
-----------+-------------------------------------------------------
   goroutine:  gc
       4ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
    2500us   encoding/json.Marshal
             main.digest
             main.runPass
-----------+-------------------------------------------------------
    7.50ms   repro/internal/telemetry/reqtrace.(*Span).StampMerge
             repro/internal/cache.(*Cache).lookup
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             repro/internal/mc.(*Controller).Enqueue
             repro/internal/core.(*Manager).Access
-----------+-------------------------------------------------------
`

func TestSelfSharesInnermostModuleFrame(t *testing.T) {
	shares, total, err := selfShares(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if want := 100e6; float64(total) != want {
		t.Fatalf("total %v, want 100ms", total)
	}
	want := map[string]float64{
		"sim":     0.40,  // leaf frame in sim
		"cache":   0.20,  // map access counts against the cache that made it
		"other":   0.135, // mem (inlined) and telemetry/reqtrace are small modules
		"runtime": 0.065, // GC worker and harness-only stacks have no module frame
		"mc":      0.20,  // malloc counts against mc, not core further out
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestSelfSharesRejectsEmptyAndMalformed(t *testing.T) {
	if _, _, err := selfShares(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("no samples: want error")
	}
	bad := "-----------+----\n   tenms   repro/internal/sim.f\n-----------+----\n"
	if _, _, err := selfShares(strings.NewReader(bad)); err == nil {
		t.Error("bad value: want error")
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/dram.(*Channel).CanActivate":     "dram",
		"repro/internal/workload.(*synth).Next":          "workload",
		"repro/internal/telemetry/jobtrace.New":          "other",
		"repro/internal/energy.(*Model).Breakdown":       "other",
		"repro/internal/exp.ProfilePass":                 "exp",
		"runtime.mallocgc":                               "",
		"main.runPass":                                   "",
		"repro/internal/cpu.(*Core).retire":              "cpu",
		"repro/internal/core.(*Manager).translate.func1": "core",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
