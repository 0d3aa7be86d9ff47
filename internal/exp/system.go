// Package exp assembles full systems (cores, caches, DAS manager, memory
// controller, DRAM) from a config.Config, runs them under the Section 6
// measurement protocol, and regenerates every table and figure of the
// paper's evaluation.
package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System is one fully wired simulation instance.
type System struct {
	Cfg    config.Config
	Design core.Design
	Eng    *sim.Engine
	Cores  []*cpu.Core
	L1s    []*cache.Cache
	L2s    []*cache.Cache
	LLC    *cache.Cache
	Mgr    *core.Manager
	Ctl    *mc.Controller
	Dev    *dram.Device

	names     []string
	remaining int
	warmupsTo int

	// obs is this run's telemetry bundle (nil = off; see AttachObserver).
	obs *Observer

	// live, when non-nil, is the owning session's streaming-progress
	// accumulator; lastLiveEv/lastLiveIn are this system's
	// already-folded totals (see progress.go).
	live       *liveProgress
	lastLiveEv uint64
	lastLiveIn uint64

	// Per-core counter snapshots: [core][0]=at warm-up, [1]=at quota.
	missSnap [][2]uint64
	promSnap [][2]uint64
	// warm is the shared counters at the moment the last core finished
	// warm-up: the shared measurement window's start.
	warm counters

	// pool, when non-nil, owns this machine's memory lifecycle: RunContext
	// leaves the engine attached (instead of releasing its storage to
	// the sim pools) so the whole system can be checked back in and reused
	// via Reset.
	pool *SystemPool
}

// Build wires a system running the named benchmarks, one per core.
// static supplies the profiled fast-row set (required for SAS/CHARM);
// profile enables row-heat recording (used on baseline runs).
func Build(cfg config.Config, design core.Design, benchmarks []string, static *core.StaticAssignment, profile bool) (*System, *core.RowProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(benchmarks) != cfg.Cores {
		return nil, nil, fmt.Errorf("exp: %d benchmarks for %d cores", len(benchmarks), cfg.Cores)
	}
	if design.Static() && static == nil {
		return nil, nil, fmt.Errorf("exp: %v requires a static assignment (run a Standard baseline first)", design)
	}
	eng := sim.NewEngine()
	dev, err := dram.New(cfg.DRAMConfig(design))
	if err != nil {
		return nil, nil, err
	}
	ctl, err := mc.New(cfg.MCConfig(), eng, dev, cfg.Cores)
	if err != nil {
		return nil, nil, err
	}
	mgrCfg, err := cfg.ManagerConfig(design)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := core.NewManager(mgrCfg, eng, ctl, cfg.Cores)
	if err != nil {
		return nil, nil, err
	}
	if static != nil {
		mgr.SetStaticAssignment(static)
	}
	if fc := cfg.FaultConfig(); fc.Enabled() {
		inj, err := fault.NewInjector(fc)
		if err != nil {
			return nil, nil, err
		}
		mgr.SetFaults(inj)
	}
	if cfg.CheckInvariants {
		mgr.EnableInvariantChecks()
	}
	var prof *core.RowProfile
	if profile {
		prof = mgr.EnableProfiling()
	}
	llc, err := cache.New(cfg.CacheConfig(config.LLC), eng, mgr, cfg.Cores)
	if err != nil {
		return nil, nil, err
	}
	mgr.SetLLC(llc)
	sys := &System{
		Cfg: cfg, Design: design, Eng: eng,
		LLC: llc, Mgr: mgr, Ctl: ctl, Dev: dev,
		names:     benchmarks,
		remaining: cfg.Cores,
		warmupsTo: cfg.Cores,
		missSnap:  make([][2]uint64, cfg.Cores),
		promSnap:  make([][2]uint64, cfg.Cores),
	}
	coreCfg := cfg.CPUConfig()
	l1Cfg, l2Cfg := cfg.CacheConfig(config.L1), cfg.CacheConfig(config.L2)
	for i, name := range benchmarks {
		gen, err := MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, nil, err
		}
		l2Cfg.Name = fmt.Sprintf("L2-%d", i)
		l2, err := cache.New(l2Cfg, eng, llc, 0)
		if err != nil {
			return nil, nil, err
		}
		l1Cfg.Name = fmt.Sprintf("L1-%d", i)
		l1, err := cache.New(l1Cfg, eng, l2, 0)
		if err != nil {
			return nil, nil, err
		}
		c, err := cpu.New(i, coreCfg, eng, gen, l1)
		if err != nil {
			return nil, nil, err
		}
		sys.L2s = append(sys.L2s, l2)
		sys.L1s = append(sys.L1s, l1)
		sys.Cores = append(sys.Cores, c)
	}
	return sys, prof, nil
}

// Reset rewinds a previously run system to the just-built state for
// cfg/design/benchmarks, reusing every retained allocation: the engine
// rewinds in place, the DRAM arrays, controller queues, caches, manager
// tables, and core structures all zero without reallocating. The
// machine shape — design, core count, geometry, cache organization,
// CPU pipeline — is pinned; Reset returns an error when
// cfg departs from it (the SystemPool keys checkouts so this does not
// happen on the pooled path). Sweepable knobs (timing sets, migration
// latency, management parameters, page policy, workloads, seeds, fault
// injection) all take effect exactly as a fresh Build would apply them.
// Per-run attachments (observer, live progress) are dropped; re-attach
// before running. Byte-identity with a fresh Build of the same
// arguments is pinned by TestPooledRunsByteIdentical.
func (s *System) Reset(cfg config.Config, design core.Design, benchmarks []string, static *core.StaticAssignment, profile bool) (*core.RowProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(benchmarks) != cfg.Cores {
		return nil, fmt.Errorf("exp: %d benchmarks for %d cores", len(benchmarks), cfg.Cores)
	}
	if design.Static() && static == nil {
		return nil, fmt.Errorf("exp: %v requires a static assignment (run a Standard baseline first)", design)
	}
	if design != s.Design {
		return nil, fmt.Errorf("exp: reset to design %v on a system built for %v", design, s.Design)
	}
	if cfg.Cores != len(s.Cores) {
		return nil, fmt.Errorf("exp: reset to %d cores on a %d-core system", cfg.Cores, len(s.Cores))
	}
	if got, want := s.LLC.Config(), cfg.CacheConfig(config.LLC); got != want {
		return nil, fmt.Errorf("exp: reset cannot resize the cache hierarchy (LLC %+v -> %+v)", got, want)
	}
	s.Eng.Reset()
	if err := s.Dev.Reset(cfg.DRAMConfig(design)); err != nil {
		return nil, err
	}
	if err := s.Ctl.Reset(cfg.MCConfig()); err != nil {
		return nil, err
	}
	mgrCfg, err := cfg.ManagerConfig(design)
	if err != nil {
		return nil, err
	}
	if err := s.Mgr.Reset(mgrCfg); err != nil {
		return nil, err
	}
	if static != nil {
		s.Mgr.SetStaticAssignment(static)
	}
	if fc := cfg.FaultConfig(); fc.Enabled() {
		inj, err := fault.NewInjector(fc)
		if err != nil {
			return nil, err
		}
		s.Mgr.SetFaults(inj)
	}
	if cfg.CheckInvariants {
		s.Mgr.EnableInvariantChecks()
	}
	var prof *core.RowProfile
	if profile {
		prof = s.Mgr.EnableProfiling()
	}
	s.LLC.Reset()
	s.Mgr.SetLLC(s.LLC)
	for i, name := range benchmarks {
		gen, err := MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, err
		}
		s.L2s[i].Reset()
		s.L1s[i].Reset()
		s.Cores[i].Reset(gen)
	}
	s.Cfg = cfg
	s.names = benchmarks
	s.remaining = cfg.Cores
	s.warmupsTo = cfg.Cores
	s.obs = nil
	s.live = nil
	s.lastLiveEv, s.lastLiveIn = 0, 0
	for i := range s.missSnap {
		s.missSnap[i] = [2]uint64{}
		s.promSnap[i] = [2]uint64{}
	}
	s.warm = counters{}
	return prof, nil
}

// free returns the engine's storage to the sim pools and severs the
// system from any machine pool. The system must not be run afterwards;
// use it on machines that will not be checked back in (failed runs,
// over-budget checkins).
func (s *System) free() {
	s.pool = nil
	s.Eng.Release()
}

// counters is the part of the components' whole-run counters that
// Result reports over the shared measurement window.
type counters struct {
	ctl                                     mc.Stats
	dev                                     dram.Stats
	promotions, tableFetches, filterRejects uint64
	tagLookups, tagHits                     uint64
}

// counters reads the shared counters now.
func (s *System) counters() counters {
	c := counters{
		ctl:          s.Ctl.Stats,
		dev:          s.Dev.CollectStats(),
		promotions:   s.Mgr.Stats.Promotions,
		tableFetches: s.Mgr.Stats.TableFetches,
	}
	if tc := s.Mgr.TagCache(); tc != nil {
		c.tagLookups, c.tagHits = tc.Lookups, tc.Hits
	}
	if f := s.Mgr.Filter(); f != nil {
		c.filterRejects = f.Rejects
	}
	return c
}

// onWarmup snapshots per-core counters and, once every core has crossed
// its warm-up boundary, the shared ones. Components never reset their
// counters mid-run: every window is a difference of two snapshots.
func (s *System) onWarmup(id int) {
	s.missSnap[id][0] = s.LLC.Stats.PerCoreMisses[id]
	s.promSnap[id][0] = s.Mgr.Stats.PerCorePromotions[id]
	s.warmupsTo--
	if s.warmupsTo == 0 {
		s.warm = s.counters()
	}
}

// onQuota snapshots a core's end-of-window counters.
func (s *System) onQuota(id int) {
	s.missSnap[id][1] = s.LLC.Stats.PerCoreMisses[id]
	s.promSnap[id][1] = s.Mgr.Stats.PerCorePromotions[id]
	s.remaining--
}

// watchdog builds the no-progress detector over this system: requests
// are outstanding whenever controller queues, migrations, translation
// fetches or core memory operations are in flight, and progress is any
// demand/meta/migration service or instruction retirement. Observation
// is host-driven (no simulation events), so enabling it never perturbs
// results.
func (s *System) watchdog() *sim.Watchdog {
	outstanding := func() int {
		r, w := s.Ctl.QueueDepths()
		n := r + w + s.Ctl.PendingMigrations() + s.Mgr.PendingTranslations()
		for _, c := range s.Cores {
			n += c.Outstanding()
		}
		return n
	}
	progress := func() uint64 {
		d := s.Dev.CollectStats() // every column command and swap issued
		p := d.Reads + d.Writes + d.Migrations
		for _, c := range s.Cores {
			p += c.RetiredTotal()
		}
		return p
	}
	report := func() string {
		return s.Ctl.Describe() + s.Mgr.DescribePending()
	}
	return sim.NewWatchdog(sim.DefaultWatchdogWindow, outstanding, progress, report)
}

// observeEvery is how many engine steps pass between watchdog and
// manager-error observations (each observation is a handful of loads,
// so this keeps the overhead unmeasurable).
const observeEvery = 1 << 12

// Run executes the measurement protocol and collects results. It fails
// fast — with a structured error rather than corrupted results — on
// assembly mistakes (CheckReady), invariant violations recorded by the
// manager, deadlock (drained queue), and livelock (watchdog).
func (s *System) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx is polled at the
// same host-driven observation stride as the watchdog (every observeEvery
// engine steps, a few microseconds of wall clock), so cancelling the
// context stops a run promptly without ever perturbing simulation state —
// the check happens between events, never inside one. A cancelled run
// returns context.Cause(ctx) wrapped with the simulated time reached.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if err := s.Mgr.CheckReady(); err != nil {
		return nil, err
	}
	// Unpooled machines recycle their event queue's backing arrays into
	// the next run's engine; a pooled machine keeps its engine attached
	// so the whole system can be checked back in and rewound with Reset.
	if s.pool == nil {
		defer s.Eng.Release()
	}
	warmup := uint64(float64(s.Cfg.InstrPerCore) * s.Cfg.WarmupFrac)
	for _, c := range s.Cores {
		if err := c.Start(warmup, s.Cfg.InstrPerCore, s.onWarmup, s.onQuota); err != nil {
			return nil, err
		}
	}
	limit := runCeiling(&s.Cfg)
	wd := s.watchdog()
	steps := 0
	for s.remaining > 0 {
		if !s.Eng.Step() {
			return nil, s.deadlockErr()
		}
		steps++
		if steps&(observeEvery-1) != 0 {
			continue
		}
		if err := s.observe(ctx, s.Eng.Now(), wd, limit); err != nil {
			return nil, err
		}
	}
	if err := s.Mgr.Err(); err != nil {
		return nil, fmt.Errorf("exp: manager failed: %w", err)
	}
	s.syncLive(s.Eng.Now())
	s.obs.finish(int64(s.Eng.Now()))
	return s.collect(), nil
}

// runCeiling is a hard limit on a run's simulated time, the backstop for
// livelocks that still count as progress (a retry storm, say); the
// watchdog catches true stalls long before it. No sane run averages more
// per instruction than 50 ns (IPC ~0.007 at Table 1's latencies) plus one
// instruction's worth of the configured latencies: a serialized walk of
// the cache hierarchy and one migration with all its retries. Cores
// share the controller, so the allowance scales with their count. The
// product saturates instead of overflowing.
func runCeiling(cfg *config.Config) sim.Time {
	walk := cfg.CPUPeriod() * sim.Time(1+cfg.L1Latency+cfg.L2Latency+cfg.LLCLatency)
	mig := sim.FromNS(cfg.MigrationLatencyNS) * sim.Time(1+cfg.MigRetries)
	per := 50*sim.Nanosecond + walk + mig
	if f := float64(cfg.InstrPerCore) * float64(cfg.Cores) * float64(per); f < math.MaxInt64 {
		return sim.Time(f)
	}
	return math.MaxInt64
}

// observe is one host-driven observation: telemetry snapshot,
// cancellation, manager failure, watchdog and the hard time ceiling. It
// fires every observeEvery engine steps, between events.
func (s *System) observe(ctx context.Context, now sim.Time, wd *sim.Watchdog, limit sim.Time) error {
	s.syncLive(now)
	s.obs.maybeSnap(int64(now))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("exp: run cancelled at t=%.0f ns: %w", now.NS(), context.Cause(ctx))
	}
	if err := s.Mgr.Err(); err != nil {
		return fmt.Errorf("exp: manager failed at t=%.0f ns: %w", now.NS(), err)
	}
	if err := wd.Observe(now); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	if now > limit {
		return fmt.Errorf("exp: watchdog: %d cores unfinished after %v ns simulated (livelock?)",
			s.remaining, now.NS())
	}
	return nil
}

// deadlockErr reports a drained event queue with cores unfinished.
func (s *System) deadlockErr() error {
	return fmt.Errorf("exp: event queue drained with %d cores unfinished (deadlock)\n%s",
		s.remaining, s.Ctl.Describe()+s.Mgr.DescribePending())
}

// CoreResult is one benchmark's measured behaviour.
type CoreResult struct {
	Benchmark   string
	IPC         float64
	Retired     uint64
	LLCMisses   uint64
	MPKI        float64
	Promotions  uint64
	PPKM        float64 // promotions per kilo-miss
	FootprintMB float64
}

// Result is one run's full measurement.
type Result struct {
	Design   core.Design
	PerCore  []CoreResult
	Access   stats.Dist // demand access locations (Fig 7c/7f/8b)
	DevStats dram.Stats

	Promotions    uint64
	PromPerAccess float64 // promotions / demand accesses (Fig 8c)
	TagHitRatio   float64
	TableFetches  uint64
	FilterRejects uint64
	EnergyProxy   float64 // relative DRAM access-energy estimate (§7.7)
	// Energy is the exact integer-picojoule decomposition of the
	// measurement window's DRAM energy, priced by internal/energy from the
	// device's per-class command counts plus background power over the
	// simulated interval. Pure accounting on counters the run already
	// keeps: it is always filled, needs no telemetry attachment, and can
	// never perturb timing. (EnergyProxy above is the frozen §7.7 coarse
	// relative estimate the power figure keeps rendering.)
	Energy      energy.Breakdown
	InstrsTotal uint64 // retired instructions summed over cores
	SimulatedNS float64
	Events      uint64

	// Faults aggregates the manager's degradation activity and Injected
	// the raw injector decisions; both are zero on a perfect device.
	Faults   core.FaultStats
	Injected fault.Stats
}

// collect derives the Result after all cores reached quota.
func (s *System) collect() *Result {
	r := &Result{Design: s.Design}
	for i, c := range s.Cores {
		misses := s.missSnap[i][1] - s.missSnap[i][0]
		proms := s.promSnap[i][1] - s.promSnap[i][0]
		kilo := float64(c.Stats.Retired) / 1000
		cr := CoreResult{
			Benchmark:   s.names[i],
			IPC:         c.IPC(),
			Retired:     c.Stats.Retired,
			LLCMisses:   misses,
			Promotions:  proms,
			FootprintMB: float64(c.Stats.UniquePages) * 4096 / (1 << 20),
		}
		if kilo > 0 {
			cr.MPKI = float64(misses) / kilo
		}
		if misses > 0 {
			cr.PPKM = float64(proms) / (float64(misses) / 1000)
		}
		r.PerCore = append(r.PerCore, cr)
	}
	// Shared counters cover the window from the last core's warm-up to
	// now (the last core's quota).
	end, w := s.counters(), &s.warm
	ce, cw := &end.ctl, &w.ctl
	r.Access = stats.Dist{
		RowBuffer: ce.ServedRowBuffer - cw.ServedRowBuffer,
		Fast:      ce.ServedFast - cw.ServedFast,
		Slow:      ce.ServedSlow - cw.ServedSlow,
	}
	r.DevStats = end.dev.Sub(w.dev)
	r.Promotions = end.promotions - w.promotions
	if total := r.Access.Total(); total > 0 {
		r.PromPerAccess = float64(r.Promotions) / float64(total)
	}
	if lookups := end.tagLookups - w.tagLookups; lookups > 0 {
		r.TagHitRatio = float64(end.tagHits-w.tagHits) / float64(lookups)
	}
	r.TableFetches = end.tableFetches - w.tableFetches
	r.FilterRejects = end.filterRejects - w.filterRejects
	r.EnergyProxy = energyProxy(r.DevStats)
	for _, c := range s.Cores {
		r.InstrsTotal += c.Stats.Retired
	}
	g := s.Dev.Geometry()
	r.Energy = s.Dev.EnergyModel().Breakdown(
		r.DevStats.EnergyCounts(), g.Channels*g.Ranks, int64(s.Eng.Now()/sim.Nanosecond))
	r.SimulatedNS = s.Eng.Now().NS()
	r.Events = s.Eng.Executed()
	r.Faults = s.Mgr.Stats.Faults
	if inj := s.Mgr.Faults(); inj != nil {
		r.Injected = inj.Stats
	}
	return r
}

// energyProxy estimates relative DRAM array energy (Section 7.7): a slow
// activate-restore-precharge cycle is the unit; a fast-subarray cycle
// costs ~45% of it (shorter bitlines move proportionally less charge),
// a column burst ~25%, a refresh ~8 bank cycles, and a migration swap
// two full row cycles in each of two subarrays.
func energyProxy(d dram.Stats) float64 {
	slowActs := float64(d.Activates - d.ActivatesFast)
	fastActs := float64(d.ActivatesFast)
	return slowActs*1.0 +
		fastActs*0.45 +
		float64(d.Reads+d.Writes)*0.25 +
		float64(d.Refreshes)*8.0 +
		float64(d.Migrations)*4.0
}

// Speedup returns this run's mean per-core IPC ratio against a baseline
// run of the same benchmarks (the paper's performance-improvement
// metric; for one core it reduces to the plain IPC ratio).
func (r *Result) Speedup(baseline *Result) float64 {
	if len(r.PerCore) != len(baseline.PerCore) {
		panic("exp: speedup against mismatched baseline")
	}
	ratios := make([]float64, len(r.PerCore))
	for i := range r.PerCore {
		ratios[i] = r.PerCore[i].IPC / baseline.PerCore[i].IPC
	}
	return stats.Mean(ratios)
}

// Improvement returns the percentage improvement over baseline.
func (r *Result) Improvement(baseline *Result) float64 {
	return (r.Speedup(baseline) - 1) * 100
}
