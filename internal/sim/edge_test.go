package sim

import (
	"fmt"
	"testing"
)

// TestFromNSEdges pins FromNS at the edges: negative durations round
// away from zero symmetrically with positive ones, sub-picosecond
// fractions round to nearest, and values near the int64 horizon (~106
// days of simulated time is Second*9.2e6; DRAM runs use microseconds)
// convert without overflow.
func TestFromNSEdges(t *testing.T) {
	cases := []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{0.0004, 0},                       // rounds down to zero
		{0.0006, 1},                       // rounds up to one picosecond
		{-0.0006, -1},                     // symmetric rounding for negatives
		{-0.0004, 0},                      // and toward zero below half a pico
		{0.25, 250},                       // quarter nanosecond
		{-13.75, -13750},                  // negative fractional
		{1, 1000},                         // exact unit
		{-1, -1000},                       //
		{1e9, Second},                     // one simulated second
		{7.5, 7500},                       // tRCD-ish magnitudes used by dram
		{9e15, 9_000_000_000_000_000_000}, // near the int64 horizon, exactly representable
	}
	for _, c := range cases {
		if got := FromNS(c.ns); got != c.want {
			t.Errorf("FromNS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestTimeNSRoundTrip pins NS as the inverse of FromNS on exact values.
func TestTimeNSRoundTrip(t *testing.T) {
	for _, ns := range []float64{0, 0.001, 0.25, 1, 7.5, -13.75, 1e6} {
		if got := FromNS(ns).NS(); got != ns {
			t.Errorf("FromNS(%v).NS() = %v, want exact round trip", ns, got)
		}
	}
}

// TestRunUntilBoundary pins the deadline semantics: an event exactly at
// the deadline fires (inclusive), one past it stays queued, and the
// clock lands on the last fired event — never on the deadline itself.
func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	e.ScheduleAt(10, note)
	e.ScheduleAt(50, note)
	e.ScheduleAt(51, note)

	e.RunUntil(50)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 50 {
		t.Fatalf("RunUntil(50) fired %v, want [10 50]", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %d after RunUntil(50), want 50 (last fired event)", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want 1 (the t=51 event)", e.Pending())
	}

	// A deadline short of every remaining event fires nothing and leaves
	// the clock alone — RunUntil never advances time on its own.
	e.RunUntil(50)
	if len(fired) != 2 || e.Now() != 50 {
		t.Fatalf("idle RunUntil moved state: fired %v, now %d", fired, e.Now())
	}

	e.RunUntil(51)
	if len(fired) != 3 || e.Now() != 51 {
		t.Fatalf("RunUntil(51) fired %v with clock %d, want third event at 51", fired, e.Now())
	}

	// Empty queue: the clock must hold at the last event even for a far
	// deadline, so a later scheduling phase resumes from event time.
	e.RunUntil(1_000_000)
	if e.Now() != 51 {
		t.Fatalf("RunUntil on empty queue advanced clock to %d, want 51", e.Now())
	}
}

// TestScheduleCallOrdering pins that closure and trampoline events
// share one (at, seq) order: interleaved same-timestamp events fire in
// scheduling order regardless of path.
func TestScheduleCallOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	record := func(a, _ any) { order = append(order, a.(int)) }
	e.Schedule(5, func() { order = append(order, 0) })
	e.ScheduleCall(5, record, 1, nil)
	e.Schedule(5, func() { order = append(order, 2) })
	e.ScheduleCallAt(5, record, 3, nil)
	e.Run()
	for i, id := range order {
		if i != id {
			t.Fatalf("same-timestamp firing order %v, want [0 1 2 3]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
}

// TestScheduleCallArgs pins that both bound arguments arrive intact.
func TestScheduleCallArgs(t *testing.T) {
	e := NewEngine()
	var gotA, gotB any
	e.ScheduleCall(1, func(a, b any) { gotA, gotB = a, b }, "alpha", 42)
	e.Run()
	if gotA != "alpha" || gotB != 42 {
		t.Fatalf("trampoline received (%v, %v), want (alpha, 42)", gotA, gotB)
	}
}

// TestScheduleCallPanics pins the trampoline path's invariants: the
// same negative-delay / past-time / nil-callback violations that panic
// on the closure path panic here too.
func TestScheduleCallPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	nop := func(_, _ any) {}
	e := NewEngine()
	e.ScheduleCall(10, nop, nil, nil)
	e.Step() // now = 10
	mustPanic("negative delay", func() { e.ScheduleCall(-1, nop, nil, nil) })
	mustPanic("past time", func() { e.ScheduleCallAt(9, nop, nil, nil) })
	mustPanic("nil callback", func() { e.ScheduleCall(1, nil, nil, nil) })
}

// TestReleaseReuse pins the pool contract: Release hands the engine —
// struct and queue backing — to the package pool, and a fresh engine
// adopting the pooled storage starts empty at time zero. (In-place
// reuse of a retained engine is Reset's job; see TestEngineReset.)
func TestReleaseReuse(t *testing.T) {
	e1 := NewEngine()
	for i := 0; i < 100; i++ {
		e1.Schedule(Time(i), func() {})
	}
	e1.RunUntil(49)
	e1.Release()

	e2 := NewEngine() // likely adopts e1's released struct and backing
	if e2.Pending() != 0 || e2.Now() != 0 || e2.Executed() != 0 {
		t.Fatalf("pooled engine not pristine: %d pending, now %d, executed %d",
			e2.Pending(), e2.Now(), e2.Executed())
	}
	n := 0
	for i := 0; i < 10; i++ {
		e2.Schedule(Time(i), func() { n++ })
	}
	e2.Run()
	if n != 10 {
		t.Fatalf("pooled engine fired %d of 10 events", n)
	}
	e2.Release()
}

// TestEngineReset pins the in-place reuse contract: after Reset a
// retained engine replays a workload exactly as a brand-new engine
// would — same firing order, same clock, same executed count — with
// pending events from the previous run discarded.
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) (order []int, now Time, executed uint64) {
		for i := 0; i < 20; i++ {
			i := i
			e.Schedule(Time(100-5*i), func() { order = append(order, i) })
		}
		e.Run()
		return order, e.Now(), e.Executed()
	}
	fresh := NewEngine()
	wantOrder, wantNow, wantExec := run(fresh)
	fresh.Release()

	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunUntil(24) // leave half the events pending, clock mid-run
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.Executed() != 0 {
		t.Fatalf("engine not pristine after Reset: %d pending, now %d, executed %d",
			e.Pending(), e.Now(), e.Executed())
	}
	order, now, exec := run(e)
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) || now != wantNow || exec != wantExec {
		t.Fatalf("reset engine diverged from fresh: order %v/%v now %d/%d executed %d/%d",
			order, wantOrder, now, wantNow, exec, wantExec)
	}
	e.Release()
}

// TestScheduleBeyond2To44 pins that simulated time is bounded only by
// Time itself: events scheduled from instants past 2^44 ps (~17.6 s)
// fire in (at, FIFO) order like any others.
func TestScheduleBeyond2To44(t *testing.T) {
	const h = Time(1) << 44
	e := NewEngine()
	defer e.Release()
	var got []string
	rec := func(id string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", id, e.Now())) }
	}
	e.ScheduleAt(h-1, rec("a"))
	e.ScheduleAt(h+1, func() {
		rec("b")()
		e.ScheduleAt(h+1, rec("d")) // same instant: FIFO behind c
		e.ScheduleAt(1<<50, rec("f"))
		e.Schedule(1, rec("g"))
	})
	e.ScheduleAt(h+1, rec("c"))
	e.ScheduleAt(1<<50, rec("e"))
	e.ScheduleAt(1<<60, func() {
		rec("h")()
		e.Schedule(0, rec("i"))
	})
	e.Run()
	want := fmt.Sprint([]string{
		fmt.Sprintf("a@%d", h-1), fmt.Sprintf("b@%d", h+1), fmt.Sprintf("c@%d", h+1),
		fmt.Sprintf("d@%d", h+1), fmt.Sprintf("g@%d", h+2), fmt.Sprintf("e@%d", 1<<50),
		fmt.Sprintf("f@%d", 1<<50), fmt.Sprintf("h@%d", 1<<60), fmt.Sprintf("i@%d", 1<<60),
	})
	if fmt.Sprint(got) != want {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestManyEventsAtOneInstant schedules more than 2^20 events while the
// clock sits at one instant (a few pending at a time, each firing event
// scheduling the next) and asserts they fire in scheduling order, all
// before an event one picosecond later.
func TestManyEventsAtOneInstant(t *testing.T) {
	const (
		n      = 1<<20 + 1000
		window = 4
		at     = Time(5000)
	)
	e := NewEngine()
	defer e.Release()
	scheduled, fired := 0, 0
	var sched func()
	sched = func() {
		id := scheduled
		scheduled++
		e.ScheduleAt(at, func() {
			if e.Now() != at || id != fired {
				t.Fatalf("event %d fired as number %d at t=%d", id, fired, e.Now())
			}
			fired++
			if scheduled < n {
				sched()
			}
		})
	}
	tail := false
	e.ScheduleAt(at, func() {
		e.Schedule(1, func() {
			if fired != n {
				t.Fatalf("later event fired after %d of %d same-instant events", fired, n)
			}
			tail = true
		})
		for i := 0; i < window; i++ {
			sched()
		}
	})
	e.Run()
	if fired != n || !tail {
		t.Fatalf("fired %d of %d same-instant events (tail fired: %v)", fired, n, tail)
	}
}
