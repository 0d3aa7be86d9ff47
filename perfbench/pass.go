package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
)

// runRecord is one point's outcome in a measured pass.
type runRecord struct {
	Label  string  `json:"label"`
	Secs   float64 `json:"secs"`
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// counters are the exact work counters summed over a pass's successful
// runs. They are simulated quantities: for a given seed they repeat
// exactly on any machine.
type counters struct {
	Events        uint64  `json:"events"`
	Instrs        uint64  `json:"instrs"` // measured-window instructions (Result.InstrsTotal)
	LLCMisses     uint64  `json:"llc_misses"`
	Promotions    uint64  `json:"promotions"`
	TableFetches  uint64  `json:"table_fetches"`
	TagHitSum     float64 `json:"tag_hit_sum"` // Σ TagHitRatio over dynamic-design runs
	DynamicRuns   int     `json:"dynamic_runs"`
	Requests      uint64  `json:"requests"` // DRAM column commands (every request served)
	RowBufferHits uint64  `json:"row_buffer_hits"`
	DemandServed  uint64  `json:"demand_served"`
	Migrations    uint64  `json:"migrations"`
	Activates     uint64  `json:"activates"`
	FastActivates uint64  `json:"fast_activates"`
	Refreshes     uint64  `json:"refreshes"`
}

// passReport is what one child process measures and prints.
type passReport struct {
	SetupS     float64     `json:"setup_s"`
	BuildS     float64     `json:"build_s"`
	WallS      float64     `json:"wall_s"`
	ProfileS   float64     `json:"profile_s"`
	Instrs     uint64      `json:"instrs"` // Session.InstrsRetired over the pass
	AllocBytes uint64      `json:"alloc_bytes"`
	Mallocs    uint64      `json:"mallocs"`
	GCCycles   uint32      `json:"gc_cycles"`
	GCCPUFrac  float64     `json:"gc_cpu_frac"`
	MaxRSSKB   int64       `json:"max_rss_kb"`
	PoolHits   uint64      `json:"pool_hits"`
	PoolMisses uint64      `json:"pool_misses"`
	ResetMS    []float64   `json:"reset_ms"`
	Runs       []runRecord `json:"runs"`
	Counters   counters    `json:"counters"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
}

// cpuMetrics are the runtime/metrics samples gc_cpu_frac is derived from.
var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// gcShare is the GC's share of the CPU time the process used between
// two readCPU samples.
func gcShare(a, b []metrics.Sample) float64 {
	d := func(i int) float64 {
		if a[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return b[i].Value.Float64() - a[i].Value.Float64()
	}
	if used := d(2) - d(1); used > 0 {
		return d(0) / used
	}
	return 0
}

// setupReps is how many times set-up is repeated in one process; the
// reported set-up time is the median repetition.
const setupReps = 9

// setup cold-builds one machine per machine shape the workload uses and
// checks the last repetition's machines into pool, so the measured pass
// runs on pooled machines the way a long-lived sweep process does.
// Between repetitions the previous machines are dropped and the heap is
// returned to the operating system, so every repetition builds into
// cold memory. Static designs are built over an empty row profile: the
// shape does not depend on the assignment, and computing the real one
// here would move the profile pass out of the measured pass.
func setup(sp *spec, pool *exp.SystemPool) (setupS, buildS float64) {
	type shape struct {
		design core.Design
		cores  int
	}
	var setups, builds []float64
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		seen := map[shape]bool{}
		var build float64
		start := time.Now()
		for _, p := range sp.points {
			k := shape{p.design, len(p.set)}
			if seen[k] {
				continue
			}
			seen[k] = true
			var static *core.StaticAssignment
			if p.design.Static() {
				static = core.BuildStaticAssignment(core.NewRowProfile(), p.cfg.Geometry(), p.cfg.FastDenom)
			}
			t := time.Now()
			sys, _, err := exp.Build(p.cfg, p.design, p.set, static, false)
			build += time.Since(t).Seconds()
			if err != nil {
				// The pass will miss the pool for this shape and report
				// the failure on the run that needs it.
				if last {
					fmt.Fprintf(os.Stderr, "perfbench: setup %s: %v\n", p.label, err)
				}
				continue
			}
			if last {
				pool.Put(sys)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, build)
		if !last {
			debug.FreeOSMemory()
		}
	}
	return median(setups), median(builds)
}

// runPoint runs one point, turning a panic into an error so that a
// failing run is counted rather than crashing the pass.
func runPoint(s *exp.Session, p point) (res *exp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if p.baseline {
		return s.Baseline(p.set)
	}
	return s.Run(p.cfg, p.design, p.set)
}

// checkResult applies the per-run correctness checks: every core retired
// exactly its measured-window quota and the energy components sum to the
// reported total.
func checkResult(p point, res *exp.Result) error {
	if len(res.PerCore) != len(p.set) {
		return fmt.Errorf("%d core results for %d benchmarks", len(res.PerCore), len(p.set))
	}
	want := p.cfg.InstrPerCore - uint64(float64(p.cfg.InstrPerCore)*p.cfg.WarmupFrac)
	for i, c := range res.PerCore {
		if c.Retired != want {
			return fmt.Errorf("core %d retired %d instructions, quota %d", i, c.Retired, want)
		}
	}
	e := res.Energy
	sum := e.ActSlowPJ + e.ActFastPJ + e.PreSlowPJ + e.PreFastPJ + e.RdSlowPJ + e.RdFastPJ +
		e.WrSlowPJ + e.WrFastPJ + e.RefPJ + e.MigPJ + e.BackgroundPJ
	if sum != e.TotalPJ() {
		return fmt.Errorf("energy components sum to %d pJ, total %d pJ", sum, e.TotalPJ())
	}
	return nil
}

// digest is an FNV-1a hash over a result's simulated fields. Events is
// left out: it counts the engine's own work, which a faster engine may
// change without changing what is simulated.
func digest(res *exp.Result) (string, error) {
	r := *res
	r.Events = 0
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func (c *counters) add(res *exp.Result) {
	c.Events += res.Events
	c.Instrs += res.InstrsTotal
	for _, pc := range res.PerCore {
		c.LLCMisses += pc.LLCMisses
	}
	c.Promotions += res.Promotions
	c.TableFetches += res.TableFetches
	if res.Design.Dynamic() {
		c.TagHitSum += res.TagHitRatio
		c.DynamicRuns++
	}
	c.Requests += res.DevStats.Reads + res.DevStats.Writes
	c.RowBufferHits += res.Access.RowBuffer
	c.DemandServed += res.Access.Total()
	c.Migrations += res.DevStats.Migrations
	c.Activates += res.DevStats.Activates
	c.FastActivates += res.DevStats.ActivatesFast
	c.Refreshes += res.DevStats.Refreshes
}

// runPass performs set-up and one measured pass of sp. When profile is
// non-empty the measured pass (and nothing else) runs under the CPU
// profiler, writing to that file.
func runPass(sp *spec, profile string) (*passReport, error) {
	rep := &passReport{}
	pool := exp.NewSystemPool(0)
	rep.SetupS, rep.BuildS = setup(sp, pool)

	s := exp.NewSession(sp.cfg)
	s.Parallelism = 1
	s.Pool = pool

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// More samples than the default 100 Hz. The kernel's timer tick
		// (commonly 250 Hz) caps the rate a CPU-time timer can deliver,
		// so asking for more only misstates each sample's duration.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	// The profile phase is timed as a whole even when the workload has
	// nothing to profile: it then reads the timer's own cost, a measured
	// value rather than a constant zero.
	for _, set := range sp.profiles {
		// The cfg must match Session.Profile's (session config with one
		// core per benchmark) so the session reuses this profile.
		if _, err := exp.ProfilePass(withCores(sp.cfg, len(set)), set); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: profile %v: %v\n", set, err)
		}
	}
	rep.ProfileS = time.Since(start).Seconds()
	for _, p := range sp.points {
		t := time.Now()
		res, err := runPoint(s, p)
		rec := runRecord{Label: p.label, Secs: time.Since(t).Seconds()}
		if err == nil {
			err = checkResult(p, res)
		}
		if err == nil {
			rec.Digest, err = digest(res)
		}
		if err == nil {
			rep.Counters.add(res)
		} else {
			rec.Err = err.Error()
			rep.Failed++
		}
		rep.Attempted++
		rep.Runs = append(rep.Runs, rec)
	}
	rep.WallS = time.Since(start).Seconds()

	if profile != "" {
		pprof.StopCPUProfile()
	}
	cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	rep.Instrs = s.InstrsRetired()
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.GCCPUFrac = gcShare(cpu0, cpu1)
	st := pool.Stats()
	rep.PoolHits, rep.PoolMisses = st.Hits, st.Misses
	rep.ResetMS = timeResets(s, sp, pool)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.MaxRSSKB = ru.Maxrss
	return rep, nil
}

// profileHz is the traced pass's CPU sampling rate.
const profileHz = 250

// timeResets times System.Reset once per successful point, after the
// measured pass, on the pooled machine that point ran on.
func timeResets(s *exp.Session, sp *spec, pool *exp.SystemPool) []float64 {
	var out []float64
	for _, p := range sp.points {
		cfg := p.cfg
		sys := pool.Get(&cfg, p.design)
		if sys == nil {
			continue
		}
		var static *core.StaticAssignment
		var err error
		if p.design.Static() {
			static, err = s.StaticAssignment(p.set, p.cfg.FastDenom)
		}
		if err == nil {
			t := time.Now()
			_, err = sys.Reset(cfg, p.design, p.set, static, false)
			out = append(out, float64(time.Since(t).Nanoseconds())/1e6)
		}
		if err != nil {
			continue // a machine that failed to rewind is not pooled again
		}
		pool.Put(sys)
	}
	return out
}
