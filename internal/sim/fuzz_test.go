package sim

import (
	"testing"
)

// refEv is one scheduled event in the reference model.
type refEv struct {
	at  Time
	seq uint64
	id  int
}

// refModel is an executable specification of the engine's ordering
// contract: a flat slice popped by linear min-scan on (at, seq). It is
// deliberately the dumbest correct implementation — O(n) per pop, no
// heap — so a bug would have to exist in both models to go unnoticed.
type refModel struct {
	now Time
	seq uint64
	evs []refEv
}

func (m *refModel) schedule(at Time, id int) {
	m.seq++
	m.evs = append(m.evs, refEv{at: at, seq: m.seq, id: id})
}

// step removes and returns the (at, seq)-minimal event, advancing now.
func (m *refModel) step() (int, bool) {
	if len(m.evs) == 0 {
		return 0, false
	}
	min := 0
	for i := 1; i < len(m.evs); i++ {
		e, b := m.evs[i], m.evs[min]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			min = i
		}
	}
	ev := m.evs[min]
	m.evs = append(m.evs[:min], m.evs[min+1:]...)
	m.now = ev.at
	return ev.id, true
}

// FuzzScheduleOrder drives the engine and the reference model with the
// same operation stream decoded from fuzz input and demands identical
// firing order, clock, and queue occupancy at every point. Both
// scheduling paths (closure and trampoline) are exercised, at delays
// both inside the timing wheel's window and far past it; events fired
// by the engine record their ids so the comparison covers the actual
// callback dispatch, not just the queue bookkeeping.
func FuzzScheduleOrder(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 2, 0, 2, 0})                   // FIFO tie at same timestamp
	f.Add([]byte{0, 200, 0, 100, 0, 150, 3, 180, 3, 255})   // RunUntil boundaries
	f.Add([]byte{1, 10, 0, 10, 4, 0, 0, 3, 2, 0, 2, 0})     // drain then refill
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 5, 0}) // churn then run out
	f.Add([]byte{1, 63, 1, 40, 1, 10, 1, 40, 1, 0, 5, 0})   // one bucket, out-of-order instants
	// Far delays (op 6, in ns) mixed with near ones: overflow-heap
	// entries interleaved with wheel entries, a far pop sliding the
	// window, then near pushes reusing the vacated slab slots and a
	// push near the window's far edge.
	f.Add([]byte{6, 100, 0, 10, 6, 66, 1, 0, 2, 0, 2, 0, 6, 0, 2, 0, 5, 0})
	f.Add([]byte{6, 200, 2, 0, 0, 3, 0, 3, 1, 3, 6, 64, 2, 0, 2, 0, 0, 1, 6, 65, 5, 0})
	f.Add([]byte{6, 255, 6, 1, 6, 70, 3, 255, 6, 30, 0, 7, 2, 0, 6, 255, 2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine()
		ref := &refModel{}
		var fired, expected []int
		record := func(a, _ any) { fired = append(fired, a.(int)) }
		nextID := 0

		refRunUntil := func(deadline Time) {
			for len(ref.evs) > 0 {
				min := ref.evs[0]
				for _, e := range ref.evs[1:] {
					if e.at < min.at || (e.at == min.at && e.seq < min.seq) {
						min = e
					}
				}
				if min.at > deadline {
					return
				}
				id, _ := ref.step()
				expected = append(expected, id)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, Time(data[i+1])
			switch op {
			case 0: // Schedule (closure path), relative delay
				id := nextID
				nextID++
				eng.Schedule(arg, func() { fired = append(fired, id) })
				ref.schedule(eng.Now()+arg, id)
			case 1: // ScheduleCallAt (trampoline path), absolute time
				id := nextID
				nextID++
				eng.ScheduleCallAt(eng.Now()+arg, record, id, nil)
				ref.schedule(eng.Now()+arg, id)
			case 2: // Step
				eng.Step()
				if id, ok := ref.step(); ok {
					expected = append(expected, id)
				}
			case 3: // RunUntil a nearby deadline
				deadline := eng.Now() + arg
				eng.RunUntil(deadline)
				refRunUntil(deadline)
			case 4: // Drain
				eng.Drain()
				ref.evs = ref.evs[:0]
			case 5: // Run to empty
				eng.Run()
				for {
					id, ok := ref.step()
					if !ok {
						break
					}
					expected = append(expected, id)
				}
			case 6: // ScheduleCall (trampoline path), relative delay of
				// 0-255 ns, straddling the wheel's 65.5 ns window
				id := nextID
				nextID++
				eng.ScheduleCall(arg*Nanosecond, record, id, nil)
				ref.schedule(eng.Now()+arg*Nanosecond, id)
			}
			if eng.Now() != ref.now && op != 4 && len(expected) > 0 {
				// The engine clock advances to each fired event; the models
				// must agree whenever anything has fired.
				t.Fatalf("op %d: clock diverged: engine %d, reference %d", op, eng.Now(), ref.now)
			}
			if eng.Pending() != len(ref.evs) {
				t.Fatalf("op %d: occupancy diverged: engine %d pending, reference %d", op, eng.Pending(), len(ref.evs))
			}
		}

		eng.Run()
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			expected = append(expected, id)
		}
		if len(fired) != len(expected) {
			t.Fatalf("fired %d events, reference fired %d", len(fired), len(expected))
		}
		for i := range fired {
			if fired[i] != expected[i] {
				t.Fatalf("firing order diverged at event %d: engine id %d, reference id %d\nengine: %v\nreference: %v",
					i, fired[i], expected[i], fired, expected)
			}
		}
	})
}
