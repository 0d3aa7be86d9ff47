package sim

import "testing"

// The engine benchmarks isolate the event hot path from the simulator
// models. BenchmarkEngineScheduleCall is the headline number: one
// schedule+fire round trip through the trampoline path used by the
// clock tickers, cache lookups and controller completions — it must
// report 0 allocs/op. The Churn variants measure queue operations at
// realistic queue depths (a 4-core system keeps a few hundred to a few
// thousand events pending); the Actors variants replay the simulator's
// delay mix at one and four cores' worth of event chains.

// churner is a self-rescheduling periodic event, the dominant event
// shape in the simulator (core/channel tickers).
type churner struct {
	eng    *Engine
	period Time
}

func churnFire(a, _ any) {
	c := a.(*churner)
	c.eng.ScheduleCall(c.period, churnFire, c, nil)
}

func benchmarkEngineChurn(b *testing.B, depth int) {
	eng := NewEngine()
	cs := make([]churner, depth)
	for i := range cs {
		// Coprime-ish periods keep the heap order nontrivial.
		cs[i] = churner{eng: eng, period: Time(997 + 2*i)}
		eng.ScheduleCall(Time(i), churnFire, &cs[i], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Executed() < uint64(b.N) {
		eng.Step()
	}
	b.StopTimer()
	eng.Release()
}

func BenchmarkEngineChurn64(b *testing.B) { benchmarkEngineChurn(b, 64) }
func BenchmarkEngineChurn1k(b *testing.B) { benchmarkEngineChurn(b, 1024) }
func BenchmarkEngineChurn8k(b *testing.B) { benchmarkEngineChurn(b, 8192) }

// actorDelays is the simulator's event-delay mix on the Table 1 machine
// (3 GHz core, DDR3-1600): 1, 4, 12 and 20 core cycles — one cycle
// weighted double, as most events are a cycle apart — one DRAM clock
// and a 50 ns DRAM access. Unlike the churners' distinct periods, these
// delays make many events share a wheel bucket and an instant.
var actorDelays = [...]Time{333, 333, 4 * 333, 12 * 333, 20 * 333, 1250, 50 * Nanosecond}

// actor is a self-rescheduling event chain drawing its delays from
// actorDelays with a xorshift generator.
type actor struct {
	eng *Engine
	rng uint64
}

func actorFire(a, _ any) {
	ac := a.(*actor)
	ac.rng ^= ac.rng << 13
	ac.rng ^= ac.rng >> 7
	ac.rng ^= ac.rng << 17
	ac.eng.ScheduleCall(actorDelays[ac.rng%uint64(len(actorDelays))], actorFire, ac, nil)
}

// benchmarkEngineActors measures one event of a simulator-shaped
// population: n actors, 16 per simulated core. ns/op is ns per event.
func benchmarkEngineActors(b *testing.B, n int) {
	eng := NewEngine()
	as := make([]actor, n)
	for i := range as {
		as[i] = actor{eng: eng, rng: uint64(i)*0x9E3779B97F4A7C15 | 1}
		eng.ScheduleCall(Time(i), actorFire, &as[i], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Executed() < uint64(b.N) {
		eng.Step()
	}
	b.StopTimer()
	eng.Release()
}

func BenchmarkEngineActors16(b *testing.B) { benchmarkEngineActors(b, 16) }
func BenchmarkEngineActors64(b *testing.B) { benchmarkEngineActors(b, 64) }

var benchSink int

func benchNopFire(_, _ any) { benchSink++ }

// BenchmarkEngineScheduleCall is a depth-1 schedule+fire round trip on
// the allocation-free trampoline path.
func BenchmarkEngineScheduleCall(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleCall(1, benchNopFire, nil, nil)
		eng.Step()
	}
	eng.Release()
}

// BenchmarkEngineScheduleClosure is the same round trip through the
// closure path (Schedule), for comparison against the trampoline.
func BenchmarkEngineScheduleClosure(b *testing.B) {
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, fn)
		eng.Step()
	}
	eng.Release()
}

// BenchmarkEngineReleaseReuse measures the per-run cost of standing up
// an engine, running a small workload, and returning the queue backing
// to the pool — the exp.Session fresh-run pattern.
//
// The steady state is 0 allocs/op: Release recycles the Engine struct
// itself along with everything behind it (wheel, slab, overflow heap).
// This became possible when Release switched to an
// ownership-transferring contract — an engine must not be used after
// Release; systems that outlive a run and want to rewind their engine
// in place call Reset instead (the exp.SystemPool path).
func BenchmarkEngineReleaseReuse(b *testing.B) {
	var cs churner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		cs.eng, cs.period = eng, 3
		eng.ScheduleCall(0, churnFire, &cs, nil)
		eng.RunUntil(100)
		eng.Drain()
		eng.Release()
	}
}
