package exp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// The engine's determinism contract (see internal/sim): figure output
// depends only on the configuration and seeds, not on host scheduling,
// session parallelism, or the event-queue implementation. The queue
// half of the contract — value-typed 4-ary heap vs the container/heap
// reference — is cross-checked by `go test -tags sim_refheap
// ./internal/sim` and by the figure-level diff in scripts/check.sh,
// which renders the same figure under both builds and byte-compares.

// renderFig7a computes a two-benchmark Fig7a with the given session
// parallelism; fill runs the figure's baselines and designs through
// runAll, so a wide session really runs them concurrently.
func renderFig7a(t *testing.T, par int) string {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Parallelism = par
	s.Benchmarks = []string{"mcf", "libquantum"}
	fig, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	return fig.Render()
}

// TestDeterminismAcrossParallelism renders the same figure with a
// serial session and a GOMAXPROCS-wide one; concurrent sessions run
// independent engines, so the rendered text must be byte-identical.
func TestDeterminismAcrossParallelism(t *testing.T) {
	serial := renderFig7a(t, 1)
	wide := renderFig7a(t, max(2, runtime.GOMAXPROCS(0)))
	if serial != wide {
		t.Fatalf("figure output depends on session parallelism:\nserial:\n%s\nparallel:\n%s", serial, wide)
	}
}

// TestDeterminismRepeatedSessions renders the same figure from two
// fresh sessions; pooled queue backings and recycled requests must not
// leak state across runs.
func TestDeterminismRepeatedSessions(t *testing.T) {
	a := renderFig7a(t, 1)
	b := renderFig7a(t, 1)
	if a != b {
		t.Fatalf("figure output differs between identical sessions:\n%s\nvs:\n%s", a, b)
	}
}

// TestRunAllLowestFailure pins runAll's error contract: jobs start in
// index order, none starts after a failure, and the error returned is
// the lowest-index failure's at any parallelism.
func TestRunAllLowestFailure(t *testing.T) {
	for _, par := range []int{1, 4} {
		s := NewSession(tinyConfig())
		s.Parallelism = par
		var started atomic.Int32
		jobs := make([]job, 64)
		for i := range jobs {
			jobs[i] = func() error {
				started.Add(1)
				if i == 3 || i == 5 {
					return fmt.Errorf("job %d", i)
				}
				return nil
			}
		}
		err := s.runAll(jobs)
		if err == nil || err.Error() != "exp: job 3" {
			t.Fatalf("parallelism %d: err = %v, want exp: job 3", par, err)
		}
		// Serially the run stops at job 3, like a plain loop. In
		// parallel a failure stops new claims by job 5 at the latest, and
		// each other worker holds at most one claim.
		limit := 5 + par
		if par == 1 {
			limit = 4
		}
		if n := int(started.Load()); n > limit {
			t.Fatalf("parallelism %d: %d jobs started, want at most %d", par, n, limit)
		}
	}
}
