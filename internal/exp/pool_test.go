package exp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// The pooled-machine byte-identity suite: a machine checked out of a
// SystemPool and rewound with System.Reset must be observationally
// indistinguishable from a fresh Build — same DRAM command stream (the
// strongest observable), same figure bytes, across all six designs,
// open and closed page, and multicore mixes.

// TestPooledRunsByteIdentical is the tentpole's non-negotiable: for
// every stream case (all six designs, closed-page, a multicore mix), a
// machine that already ran a *different* sweep point — different seed,
// flipped page policy, perturbed migration latency — then went through
// Put/Get/Reset must replay the target point with the exact command
// count and FNV-1a stream digest a fresh Build produces.
func TestPooledRunsByteIdentical(t *testing.T) {
	for _, sc := range streamCases() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			freshN, freshSum := streamDigest(t, sc)

			// Dirty the machine with a same-shape sweep variant so Reset
			// must scrub real state, not a pristine build.
			dirty := caseConfig(sc)
			dirty.Seed = sc.seed + 1
			dirty.ClosedPage = !sc.closedPage
			dirty.MigrationLatencyNS += 20
			pool := NewSystemPool(0)
			sys, _, err := Build(dirty, sc.design, sc.benchmarks, caseStatic(t, dirty, sc), false)
			if err != nil {
				t.Fatal(err)
			}
			sys.pool = pool // keep the engine attached across the run
			if _, err := sys.Run(); err != nil {
				t.Fatalf("dirty run: %v", err)
			}
			pool.Put(sys)

			cfg := caseConfig(sc)
			got := pool.Get(&cfg, sc.design)
			if got == nil {
				t.Fatal("pool miss for same-shape config")
			}
			if got != sys {
				t.Fatal("pool returned a different machine")
			}
			if _, err := got.Reset(cfg, sc.design, sc.benchmarks, caseStatic(t, cfg, sc), false); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			n, sum := digestRun(t, got, sc.name)
			if n != freshN || sum != freshSum {
				t.Errorf("pooled run diverged: commands=%d fnv64a=%016x, fresh commands=%d fnv64a=%016x",
					n, sum, freshN, freshSum)
			}
			pool.Drain()
		})
	}
}

// TestPooledReshapeAndFaultsByteIdentical dirties one pooled DAS
// machine twice — with 8-row and then 64-row migration groups, each
// under migration failures and table ECC faults — before rewinding it
// to the das/mcf stream case. The dirty runs recycle table-fetch slots
// through ECC re-fetches and promotion slots through retries and pins,
// and the group freelist crosses a shrink and a grow; the final run
// must still replay a fresh build's command stream exactly.
func TestPooledReshapeAndFaultsByteIdentical(t *testing.T) {
	sc := streamCase{"das/mcf", core.DAS, []string{"mcf"}, 42, false}
	freshN, freshSum := streamDigest(t, sc)

	pool := NewSystemPool(0)
	var sys *System
	for _, groupSize := range []int{8, 64} {
		dirty := caseConfig(sc)
		dirty.GroupSize = groupSize
		dirty.MigFailRate = 0.5
		dirty.TableCorruptRate = 0.3
		if sys == nil {
			var err error
			if sys, _, err = Build(dirty, sc.design, sc.benchmarks, nil, false); err != nil {
				t.Fatal(err)
			}
		} else {
			if got := pool.Get(&dirty, sc.design); got != sys {
				t.Fatal("pool did not return the dirtied machine")
			}
			if _, err := sys.Reset(dirty, sc.design, sc.benchmarks, nil, false); err != nil {
				t.Fatalf("Reset to group size %d: %v", groupSize, err)
			}
		}
		sys.pool = pool
		if _, err := sys.Run(); err != nil {
			t.Fatalf("dirty run, group size %d: %v", groupSize, err)
		}
		f := sys.Mgr.Stats.Faults
		if f.MigRetries == 0 || f.PinnedRows == 0 || f.TableRefetches == 0 {
			t.Fatalf("group size %d: fault paths not exercised: %+v", groupSize, f)
		}
		pool.Put(sys)
	}

	cfg := caseConfig(sc)
	if got := pool.Get(&cfg, sc.design); got != sys {
		t.Fatal("pool did not return the dirtied machine")
	}
	if _, err := sys.Reset(cfg, sc.design, sc.benchmarks, nil, false); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	n, sum := digestRun(t, sys, sc.name)
	if n != freshN || sum != freshSum {
		t.Errorf("reshaped pooled run diverged: commands=%d fnv64a=%016x, fresh commands=%d fnv64a=%016x",
			n, sum, freshN, freshSum)
	}
	pool.Drain()
}

// TestPooledTagCacheAndFilterReshapeByteIdentical walks one pooled DAS
// machine through tag-cache shapes and filter shapes going up, then
// down: each Reset reshapes the tag cache and filter in place (growing
// their backing or reslicing it smaller, with the associativity moving
// too), and every step's run must replay a fresh build's command
// stream exactly.
func TestPooledTagCacheAndFilterReshapeByteIdentical(t *testing.T) {
	sc := streamCase{"das/mcf", core.DAS, []string{"mcf"}, 42, false}
	steps := []struct{ tagKB, tagAssoc, threshold, counters int }{
		{4, 8, 1, 1024}, // the stream case's own knobs
		{8, 16, 2, 64},
		{32, 4, 4, 4096},
		{2, 2, 3, 16},
		{4, 8, 1, 1024},
	}
	pool := NewSystemPool(0)
	var sys *System
	sums := map[uint64]bool{}
	for _, st := range steps {
		cfg := caseConfig(sc)
		cfg.TagCacheKB, cfg.TagCacheAssoc = st.tagKB, st.tagAssoc
		cfg.FilterThreshold, cfg.FilterCounters = st.threshold, st.counters
		fresh, _, err := Build(cfg, sc.design, sc.benchmarks, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		freshN, freshSum := digestRun(t, fresh, sc.name)
		sums[freshSum] = true

		if sys == nil {
			if sys, _, err = Build(cfg, sc.design, sc.benchmarks, nil, false); err != nil {
				t.Fatal(err)
			}
		} else {
			if got := pool.Get(&cfg, sc.design); got != sys {
				t.Fatal("pool did not return the dirtied machine")
			}
			if _, err := sys.Reset(cfg, sc.design, sc.benchmarks, nil, false); err != nil {
				t.Fatalf("Reset to %+v: %v", st, err)
			}
		}
		sys.pool = pool
		n, sum := digestRun(t, sys, sc.name)
		if n != freshN || sum != freshSum {
			t.Errorf("%+v: pooled run diverged: commands=%d fnv64a=%016x, fresh commands=%d fnv64a=%016x",
				st, n, sum, freshN, freshSum)
		}
		pool.Put(sys)
	}
	if len(sums) < 3 {
		t.Fatalf("only %d distinct streams over %d knob steps: the knobs did not reach the run", len(sums), len(steps))
	}
	pool.Drain()
}

// TestPooledFigureBytesMatchFresh pins the user-facing observable:
// Figure 7a rendered by pool-disabled sessions and by two sessions
// sharing one pool (the second running entirely on recycled machines)
// must produce identical bytes.
func TestPooledFigureBytesMatchFresh(t *testing.T) {
	// Two benchmarks keep the three renders affordable under -race; the
	// full-matrix stream digests above cover the remaining designs.
	render := func(s *Session) string {
		s.Benchmarks = []string{"mcf", "soplex"}
		fig, err := s.Figure("7a")
		if err != nil {
			t.Fatal(err)
		}
		return fig.Render()
	}
	fresh := NewSession(tinyConfig())
	fresh.DisablePool = true
	want := render(fresh)

	pool := NewSystemPool(0)
	for i := 0; i < 2; i++ {
		s := NewSession(tinyConfig())
		s.Pool = pool
		if got := render(s); got != want {
			t.Errorf("session %d: pooled figure bytes differ from fresh:\n--- fresh ---\n%s\n--- pooled ---\n%s", i, want, got)
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Errorf("second pooled session never hit the pool: %+v", st)
	}
	pool.Drain()
}

// TestPooledTelemetryTimelineMatchesFresh closes the third identity
// surface the tentpole names: the merged metrics timeline and trace
// export of a run on a recycled machine must be byte-identical to a
// fresh build's — Registry.Reset and the reqtrace rings leave no
// residue.
func TestPooledTelemetryTimelineMatchesFresh(t *testing.T) {
	run := func(s *Session) (csv, trace string) {
		s.Benchmarks = []string{"mcf"}
		s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3}
		if _, err := s.Figure("7a"); err != nil {
			t.Fatal(err)
		}
		var csvBuf, traceBuf bytes.Buffer
		if err := s.WriteTimelineCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTrace(&traceBuf); err != nil {
			t.Fatal(err)
		}
		return csvBuf.String(), traceBuf.String()
	}
	fresh := NewSession(tinyConfig())
	fresh.DisablePool = true
	wantCSV, wantTrace := run(fresh)

	pool := NewSystemPool(0)
	warm := NewSession(tinyConfig())
	warm.Pool = pool
	run(warm) // fill the pool
	pooled := NewSession(tinyConfig())
	pooled.Pool = pool
	gotCSV, gotTrace := run(pooled)
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("second session never hit the pool: %+v", st)
	}
	if gotCSV != wantCSV {
		t.Errorf("pooled timeline CSV differs from fresh (%d vs %d bytes)", len(gotCSV), len(wantCSV))
	}
	if gotTrace != wantTrace {
		t.Errorf("pooled trace JSON differs from fresh (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
	pool.Drain()
}

// TestPoolCapFallback pins the bounded-pool degradation path: with a
// budget too small for any machine, every checkin drops, every checkout
// misses, and runs still succeed by building fresh.
func TestPoolCapFallback(t *testing.T) {
	pool := NewSystemPool(1) // smaller than any machine's footprint
	s := NewSession(tinyConfig())
	s.Pool = pool

	cfg := s.Cfg
	var results [2]string
	for i := range results {
		res, err := s.Run(cfg, core.DAS, []string{"mcf"})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = fmt.Sprintf("%+v", res)
	}
	if results[0] != results[1] {
		t.Errorf("fresh-fallback runs diverged:\n%s\n%s", results[0], results[1])
	}
	st := pool.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Drops != 2 {
		t.Errorf("stats = %+v, want Hits=0 Misses=2 Drops=2", st)
	}
	if st.Machines != 0 || st.CurrentBytes != 0 {
		t.Errorf("over-budget pool retained machines: %+v", st)
	}
	if st.HitRate() != 0 {
		t.Errorf("HitRate = %v, want 0", st.HitRate())
	}
}

// TestPoolDisabled pins that DisablePool wins over an explicit Pool:
// the session must never touch it.
func TestPoolDisabled(t *testing.T) {
	pool := NewSystemPool(0)
	s := NewSession(tinyConfig())
	s.Pool = pool
	s.DisablePool = true
	if _, err := s.Run(s.Cfg, core.DAS, []string{"mcf"}); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st != (PoolStats{}) {
		t.Errorf("disabled session touched the pool: %+v", st)
	}
}

// TestPoolConcurrentCheckout is the -race stress: goroutines hammer one
// shared pool with the full checkout/reset/run/checkin cycle and the
// lifetime accounting must stay consistent.
func TestPoolConcurrentCheckout(t *testing.T) {
	const workers, iters = 4, 3
	pool := NewSystemPool(0)
	cfg := tinyConfig()
	cfg.InstrPerCore = 20_000
	benchmarks := []string{"mcf"}

	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				run := cfg
				run.Seed = uint64(w*iters + i + 1) // distinct sweep points, one shape
				sys := pool.Get(&run, core.DAS)
				if sys == nil {
					var err error
					sys, _, err = Build(run, core.DAS, benchmarks, nil, false)
					if err != nil {
						errc <- err
						return
					}
					sys.pool = pool
				} else if _, err := sys.Reset(run, core.DAS, benchmarks, nil, false); err != nil {
					errc <- err
					return
				}
				if _, err := sys.Run(); err != nil {
					errc <- err
					return
				}
				pool.Put(sys)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("checkouts = %d hits + %d misses, want %d total", st.Hits, st.Misses, workers*iters)
	}
	if st.Machines > workers {
		t.Errorf("%d machines pooled, but only %d were ever concurrent", st.Machines, workers)
	}
	if st.CurrentBytes > st.HighWaterBytes {
		t.Errorf("CurrentBytes %d exceeds HighWaterBytes %d", st.CurrentBytes, st.HighWaterBytes)
	}
	pool.Drain()
	if st = pool.Stats(); st.Machines != 0 || st.CurrentBytes != 0 {
		t.Errorf("Drain left machines behind: %+v", st)
	}
}
