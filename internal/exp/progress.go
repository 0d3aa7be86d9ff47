package exp

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// Live progress: the session's in-flight counters. The existing
// events/instrs totals (EventsExecuted, InstrsRetired) are fed by
// countRun at run *end* — the benchmark suite depends on that
// end-of-run semantic — so streaming consumers get their own counters,
// advanced from the host observation points only (the run loop's
// observeEvery stride). No engine event ever touches them, so a subscribed
// progress stream cannot perturb simulation ordering (the same
// argument as the telemetry registry, enforced end to end by the
// byte-identity gates in check.sh).
type liveProgress struct {
	events atomic.Uint64
	instrs atomic.Uint64
	simPS  atomic.Int64 // high-water simulated time across in-flight runs
}

// LiveEvents reports engine events executed by this session including
// runs still in flight, updated at the observation stride. Monotonic.
func (s *Session) LiveEvents() uint64 { return s.live.events.Load() }

// LiveInstrs reports instructions retired by this session including
// runs still in flight, updated at the observation stride. Monotonic.
func (s *Session) LiveInstrs() uint64 { return s.live.instrs.Load() }

// LiveSimNS reports the furthest simulated time (ns) any of the
// session's runs has reached. Monotonic.
func (s *Session) LiveSimNS() float64 { return float64(s.live.simPS.Load()) / 1e3 }

// attachLive binds the session's live counters to one system; the
// system folds deltas in at every observation point.
func (s *System) attachLive(lp *liveProgress) { s.live = lp }

// syncLive folds this system's progress since the last observation into
// the session-wide live counters. Called from the host observation
// points only (never from engine events), so it always reads state
// between events.
func (s *System) syncLive(now sim.Time) {
	if s.live == nil {
		return
	}
	ev := s.Eng.Executed()
	var in uint64
	for _, c := range s.Cores {
		in += c.RetiredTotal()
	}
	s.live.events.Add(ev - s.lastLiveEv)
	s.live.instrs.Add(in - s.lastLiveIn)
	s.lastLiveEv, s.lastLiveIn = ev, in
	// High-water mark: concurrent runs race to publish their frontier,
	// and the stream must never observe simulated time moving backwards.
	for {
		cur := s.live.simPS.Load()
		if int64(now) <= cur || s.live.simPS.CompareAndSwap(cur, int64(now)) {
			return
		}
	}
}

// InstrHorizon estimates the total instructions a figure will retire:
// fresh runs per workload set x cores per set x the per-core quota.
// It is an ETA denominator, not a contract — profiling prepasses and
// cross-figure run reuse make the true count drift a little — so
// consumers must treat progress/horizon as advisory. 0 means unknown
// (or free: the static tables).
func (s *Session) InstrHorizon(name string) uint64 {
	quota := s.Cfg.InstrPerCore
	nSingle := uint64(len(s.singles()))
	mixSets, _ := s.mixSets()
	nMix := uint64(len(mixSets))
	switch name {
	case "table1", "table2", "area":
		return 0
	case "7a", "energy":
		return nSingle * 6 * quota // baseline + 5 comparison designs
	case "7b":
		return nSingle * 1 * quota // DAS only
	case "7c":
		return nSingle * 2 * quota // SAS + DAS
	case "7d":
		return nMix * 6 * 4 * quota
	case "7e":
		return nMix * 1 * 4 * quota
	case "7f":
		return nMix * 2 * 4 * quota
	case "8":
		return nSingle * (uint64(len(FilterThresholds)) + 1) * quota
	case "9a", "9b":
		return nSingle * 5 * quota // 4 sweep points + baseline
	case "9c", "9d":
		return nSingle * 4 * quota
	case "power":
		return nSingle * 5 * quota // 4 designs + baseline
	case "faults":
		return nSingle * 8 * quota
	default:
		return 0
	}
}

// DesignInstrHorizon estimates the instructions a single-design run
// (serve's design requests, dasbench -design) will retire.
func (s *Session) DesignInstrHorizon(design core.Design, benchmarks []string) uint64 {
	quota := uint64(len(benchmarks)) * s.Cfg.InstrPerCore
	if design == core.Standard {
		return quota
	}
	return 2 * quota // baseline + design
}
