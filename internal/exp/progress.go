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

// horizon is the instructions filling p retires on a fresh session: per
// distinct run, its cores times the per-core quota. A single-program run
// overshoots its quota by at most one retire bundle (Width); a mix's
// cores keep running until the slowest reaches its quota, so mix figures
// retire 10–15% more. Runs the session already memoized retire nothing
// again, so after other figures the horizon is an upper bound.
func (s *Session) horizon(p *plan) uint64 {
	runs, _, _ := s.runs(p)
	var n uint64
	for _, r := range runs {
		n += uint64(len(r.set)) * r.cfg.InstrPerCore
	}
	return n
}

// InstrHorizon is the ETA denominator of a figure: the instructions its
// plan retires (see horizon). 0 means free (the static tables) or
// unknown (an unknown figure or mix name).
func (s *Session) InstrHorizon(name string) uint64 {
	f := lookup(name)
	if f == nil || f.cols == nil {
		return 0
	}
	p, err := f.plan(s)
	if err != nil {
		return 0
	}
	return s.horizon(p)
}

// DesignInstrHorizon is the ETA denominator of a single-design run
// (serve's design requests).
func (s *Session) DesignInstrHorizon(design core.Design, benchmarks []string) uint64 {
	return s.horizon(s.designPlan(design, benchmarks))
}
