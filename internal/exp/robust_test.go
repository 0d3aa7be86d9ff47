package exp

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// runOnce builds and runs one DAS system over mcf with cfg.
func runOnce(t *testing.T, cfg config.Config) *Result {
	t.Helper()
	sys, _, err := Build(cfg, core.DAS, []string{"mcf"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismFaultFree verifies that two runs of the same workload
// with the same seed produce byte-identical results when no faults are
// injected.
func TestDeterminismFaultFree(t *testing.T) {
	cfg := tinyConfig()
	a := runOnce(t, cfg)
	b := runOnce(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-free runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestDeterminismWithFaults verifies reproducibility with every fault
// class active: same seed, same fault stream, byte-identical results —
// including the injected-fault counters themselves.
func TestDeterminismWithFaults(t *testing.T) {
	cfg := tinyConfig()
	cfg.WeakRowRate = 0.1
	cfg.MigFailRate = 0.25
	cfg.TagCorruptRate = 0.01
	cfg.TableCorruptRate = 0.01
	a := runOnce(t, cfg)
	b := runOnce(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulty runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Injected.MigFailures == 0 {
		t.Fatal("expected some injected migration failures at rate 0.25")
	}
}

// TestInvariantCheckerIsFree verifies the invariant checker observes but
// never perturbs: runs with and without it differ only in nothing.
func TestInvariantCheckerIsFree(t *testing.T) {
	on := tinyConfig()
	on.CheckInvariants = true
	off := tinyConfig()
	off.CheckInvariants = false
	a, b := runOnce(t, on), runOnce(t, off)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("invariant checker changed results:\n%+v\nvs\n%+v", a, b)
	}
}

// TestZeroRatesMatchPerfectDevice verifies that explicitly-zero fault
// rates take the exact fault-free path (no injector, no extra RNG use).
func TestZeroRatesMatchPerfectDevice(t *testing.T) {
	zero := tinyConfig()
	zero.WeakRowRate = 0
	zero.MigFailRate = 0
	zero.TagCorruptRate = 0
	zero.TableCorruptRate = 0
	zero.FaultSeed = 12345 // must be inert while all rates are zero
	a, b := runOnce(t, tinyConfig()), runOnce(t, zero)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-rate run differs from perfect device:\n%+v\nvs\n%+v", a, b)
	}
}

// TestGracefulDegradationMigFail drives migration failure to certainty:
// every promotion attempt must be retried, abandoned, and its row pinned
// slow, until the circuit breaker judges the migration lane broken and
// promotion stops device-wide — after which DAS performs close to
// Standard DRAM (slow-only service plus translation overhead), with the
// run completing and the invariant checker silent.
func TestGracefulDegradationMigFail(t *testing.T) {
	cfg := tinyConfig()
	cfg.MigFailRate = 1.0
	res := runOnce(t, cfg)
	if res.Promotions != 0 {
		t.Fatalf("promotions committed despite certain failure: %d", res.Promotions)
	}
	if res.Faults.MigFailures == 0 || res.Faults.PinnedRows == 0 {
		t.Fatalf("expected failures and pinned rows, got %+v", res.Faults)
	}
	if res.Faults.MigRetries != res.Faults.PinnedRows*uint64(cfg.MigRetries) {
		t.Fatalf("retry accounting: %d retries for %d pinned rows (MigRetries=%d)",
			res.Faults.MigRetries, res.Faults.PinnedRows, cfg.MigRetries)
	}
	if res.Faults.MigBreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", res.Faults.MigBreakerTrips)
	}
	// Degraded DAS must land near the Standard baseline, not collapse.
	sys, _, err := Build(cfg, core.Standard, []string{"mcf"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	std, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.PerCore[0].IPC / std.PerCore[0].IPC; ratio < 0.9 {
		t.Fatalf("degraded DAS at %.2fx Standard IPC, want >= 0.9x", ratio)
	}
}

// TestGracefulDegradationAllWeak fences every migration group (all fast
// rows weak): promotions must stop entirely and the run still completes.
func TestGracefulDegradationAllWeak(t *testing.T) {
	cfg := tinyConfig()
	cfg.WeakRowRate = 1.0
	res := runOnce(t, cfg)
	if res.Promotions != 0 {
		t.Fatalf("promotions into fully-weak fast subarrays: %d", res.Promotions)
	}
	if res.Faults.FencedGroups == 0 {
		t.Fatal("no groups fenced at weak rate 1.0")
	}
}

// TestGracefulDegradationTableCorrupt keeps the run live even when every
// translation-table fetch fails ECC: re-fetches are bounded, so forward
// progress is guaranteed.
func TestGracefulDegradationTableCorrupt(t *testing.T) {
	cfg := tinyConfig()
	cfg.TableCorruptRate = 1.0
	res := runOnce(t, cfg)
	if res.Faults.TableRefetches == 0 {
		t.Fatal("no table re-fetches at corruption rate 1.0")
	}
	if res.PerCore[0].IPC <= 0 {
		t.Fatal("run made no progress")
	}
}

// TestMaxCoresShortRun runs the largest accepted machine for a short
// episode. Sixty-four cores share one controller, so their average time
// per instruction is far above a single core's; the run ceiling must
// scale with the core count instead of calling this a livelock.
func TestMaxCoresShortRun(t *testing.T) {
	cfg := config.Scaled()
	cfg.Cores = config.MaxCores
	cfg.InstrPerCore = 1000
	set := make([]string, cfg.Cores)
	for i := range set {
		set[i] = "mcf"
	}
	for _, d := range []core.Design{core.Standard, core.DAS} {
		sys, _, err := Build(cfg, d, set, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}
