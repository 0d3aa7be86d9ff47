//go:build !sim_refheap

package sim

import (
	"math/bits"
	"sync"
)

// eventQueue orders entries by (at, seq) using a timing wheel backed by
// an overflow 4-ary min-heap.
//
// Why a wheel: the simulator's event population is overwhelmingly
// near-future — CPU ticks one core period out (~333 ps), cache lookups
// a few cycles out, DRAM commands and completions within tens of
// nanoseconds — while only rare events (refresh deadlines, idle-channel
// wakes, the watchdog) live further ahead. A comparison-based heap pays
// O(log n) dependent entry moves on every operation; the wheel turns
// push into a slot write plus a bit-set and pop into a two-level bitmap
// probe plus an unlink, both O(1) for the dominant traffic.
//
// Layout: wheelBuckets buckets of wheelTick = 1<<wheelShift picoseconds
// each cover a sliding window of wheelBuckets<<wheelShift (= 65.5 ns)
// starting at `base` (the bucket of the last popped entry — a lower
// bound for every live entry, since pops are monotone in at). An entry
// within the window goes to bucket (at>>wheelShift)&wheelMask; bucket
// occupancy is tracked in a 1024-bit bitmap with a 16-bit summary (one
// bit per occupancy word), so the earliest occupied bucket is found
// with two rotate-and-count-zeros probes. Anything beyond the window
// goes to the overflow heap in es. Overflow entries are never migrated:
// pop simply compares the wheel minimum against the heap top, which
// preserves the total order even when the window has slid past an
// overflow entry's timestamp.
//
// Wheel entries live in one slab of nodes shared by every bucket, with
// vacated slots threaded on a free list, so the slab is sized by the
// peak number of pending wheel events rather than by each bucket's
// deepest pile-up. A bucket is a singly linked list of slab slots kept
// in (at, seq) order, so pop unlinks the head with no scan. Buckets are
// often shared (the simulator's tickers and lookups pile up on the same
// instants), but a new entry nearly always fires no earlier than the
// bucket's tail — it has the largest seq, and usually the same or a
// later instant — so push appends at the tail and walks the list only
// in the rare out-of-order case.
//
// The firing order is the total order (at, seq) regardless of storage,
// so this queue is byte-for-byte interchangeable with the
// container/heap reference in queue_ref.go (build tag sim_refheap).
type eventQueue struct {
	w    *wheel
	nw   int    // live entries in the wheel
	base uint64 // bucket id (at>>wheelShift) of the last pop; lower bound for all live entries
	es   []entry
	// esBox is the pool box es came from, retained so release can Put
	// the same box back instead of boxing a fresh slice header (which
	// would allocate on every engine teardown).
	esBox *[]entry
}

const (
	// wheelShift sets the bucket width: 1<<6 = 64 ps.
	wheelShift   = 6
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

// node is one slab slot: a wheel entry and the link to the next slot of
// its bucket (or, for a vacated slot, of the free list). Slot 0 is never
// used, so 0 is the nil link and a zeroed wheel has every bucket empty.
type node struct {
	entry
	next int32
}

// wheel is the bucketed storage, pooled as a unit across engines so a
// released engine's slab (the only steady-state allocation of the
// wheel) is recycled by the next NewEngine.
type wheel struct {
	summary uint16 // bit w set iff occ[w] != 0
	occ     [wheelWords]uint64
	head    [wheelBuckets]int32 // first slot of each bucket; 0 = empty
	tail    [wheelBuckets]int32 // last slot of each non-empty bucket
	free    int32               // first vacated slot; 0 = none
	slab    []node              // grown on the first push, never in NewEngine
}

var wheelPool = sync.Pool{New: func() any { return new(wheel) }}

// entrySlicePool recycles overflow-heap backing arrays across engines
// (see Engine.Release). Pooled storage holds no live references: every
// vacated slot is zeroed on pop/reset/release.
var entrySlicePool = sync.Pool{New: func() any { return new([]entry) }}

// attachPooled adopts recycled storage if the queue has none. A fresh
// box may hold a nil slice (the pool's New), so the presence of the box
// — not es being non-nil — is what marks the queue as pooled.
func (q *eventQueue) attachPooled() {
	if q.esBox == nil {
		q.esBox = entrySlicePool.Get().(*[]entry)
		q.es = (*q.esBox)[:0]
	}
	if q.w == nil {
		q.w = wheelPool.Get().(*wheel)
	}
}

func (q *eventQueue) len() int { return q.nw + len(q.es) }

// findWheelMin locates the bucket holding the earliest wheel entry (its
// head); ok is false when the wheel is empty. Buckets are probed in
// circular order starting at base's slot: the sliding window
// [base, base+wheelBuckets) maps injectively onto the ring, so the
// first occupied bucket in that order holds the globally earliest
// timestamps.
func (q *eventQueue) findWheelMin() (bkt int, ok bool) {
	if q.nw == 0 {
		return 0, false
	}
	w := q.w
	start := int(q.base) & wheelMask
	w0, b0 := start>>6, start&63
	if m := w.occ[w0] >> b0 << b0; m != 0 {
		// An occupied bucket in the start word at or after the start slot.
		return w0<<6 + bits.TrailingZeros64(m), true
	}
	// Rotate the summary so word w0+1 lands at bit 0; the first set
	// bit then names the next occupied word in circular order
	// (including w0 itself again, last, for its pre-start slots).
	rot := bits.RotateLeft16(w.summary, -(w0 + 1))
	wd := (w0 + 1 + bits.TrailingZeros16(rot)) & (wheelWords - 1)
	m := w.occ[wd]
	if wd == w0 {
		m &= 1<<b0 - 1 // only the slots before start remain
	}
	return wd<<6 + bits.TrailingZeros64(m), true
}

// minAt returns the timestamp of the earliest entry (queue must be
// non-empty).
func (q *eventQueue) minAt() Time {
	bkt, ok := q.findWheelMin()
	if !ok {
		return q.es[0].at
	}
	at := q.w.slab[q.w.head[bkt]].at
	if len(q.es) > 0 && q.es[0].at < at {
		return q.es[0].at
	}
	return at
}

// push inserts an entry: into a slab slot on its wheel bucket's list
// when at falls inside the sliding window, else into the overflow heap.
// seq must exceed every live entry's, which the engine's counter
// guarantees; that is what lets an entry at the tail's instant append.
//
// base moves only at pops, never here. Re-anchoring the window at a
// push onto an empty queue looks attractive (a cold start far from t=0
// would otherwise overflow), but it is unsound: a push says nothing
// about the times of *later* pushes. The empty-at-push state occurs
// mid-callback (the engine popped the last entry and is executing it),
// and the same callback can first schedule a far wake — which a
// re-anchor would admit into the wheel — and then a nearer one, which
// underflows ab-base into the overflow heap. Popping the near entry
// drags base back and strands the far wheel entry outside the
// [base, base+wheelBuckets) window, where the circular bucket probe no
// longer agrees with time order and the far entry can fire early.
// Without re-anchoring, a far push on an empty queue simply takes the
// overflow heap, and the pop that retires it re-anchors base; only the
// handful of pushes before that pop pay the heap path.
func (q *eventQueue) push(at Time, seq uint64, fn func(a, b any), a, b any) {
	ab := uint64(at) >> wheelShift
	if ab-q.base >= wheelBuckets {
		q.heapPush(entry{at: at, seq: seq, cfn: fn, a: a, b: b})
		return
	}
	if q.w == nil {
		q.w = wheelPool.Get().(*wheel)
	}
	w := q.w
	s := w.free
	if s != 0 {
		w.free = w.slab[s].next
	} else {
		if len(w.slab) == 0 {
			w.slab = append(w.slab, node{}) // slot 0: the nil link
		}
		s = int32(len(w.slab))
		w.slab = append(w.slab, node{})
	}
	n := &w.slab[s]
	n.at, n.seq, n.cfn, n.a, n.b, n.next = at, seq, fn, a, b, 0

	i := ab & wheelMask
	q.nw++
	h := w.head[i]
	switch {
	case h == 0:
		w.head[i], w.tail[i] = s, s
		w.occ[i>>6] |= 1 << (i & 63)
		w.summary |= 1 << (i >> 6)
	case w.slab[w.tail[i]].at <= at:
		w.slab[w.tail[i]].next = s
		w.tail[i] = s
	case w.slab[h].at > at:
		n.next = h
		w.head[i] = s
	default:
		// head.at <= at < tail.at: the walk stops before the tail.
		p := h
		for w.slab[w.slab[p].next].at <= at {
			p = w.slab[p].next
		}
		n.next = w.slab[p].next
		w.slab[p].next = s
	}
}

// heapPush inserts e into the overflow heap, sifting it up through its
// ancestors.
func (q *eventQueue) heapPush(e entry) {
	q.es = append(q.es, e)
	es := q.es
	i := len(es) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&es[p]) {
			break
		}
		es[i] = es[p]
		i = p
	}
	es[i] = e
}

// pop removes the earliest entry across wheel and overflow and returns
// its timestamp, callback and bound arguments.
func (q *eventQueue) pop() (Time, func(a, b any), any, any) {
	if bkt, ok := q.findWheelMin(); ok {
		w := q.w
		s := w.head[bkt]
		n := &w.slab[s]
		if len(q.es) == 0 || n.before(&q.es[0]) {
			at, fn, a, b := n.at, n.cfn, n.a, n.b
			if w.head[bkt] = n.next; n.next == 0 {
				w.occ[bkt>>6] &^= 1 << (bkt & 63)
				if w.occ[bkt>>6] == 0 {
					w.summary &^= 1 << (bkt >> 6)
				}
			}
			n.cfn, n.a, n.b = nil, nil, nil // drop callback/arg references for GC
			n.next, w.free = w.free, s
			q.nw--
			q.base = uint64(at) >> wheelShift
			return at, fn, a, b
		}
	}
	return q.heapPop()
}

// heapPop removes the overflow heap's top and returns its timestamp,
// callback and bound arguments.
func (q *eventQueue) heapPop() (Time, func(a, b any), any, any) {
	es := q.es
	top := &es[0]
	at, fn, a, b := top.at, top.cfn, top.a, top.b
	n := len(es) - 1
	last := es[n]
	es[n] = entry{} // drop callback/arg references for GC
	q.es = es[:n]
	if n > 0 {
		q.siftDown(last)
	}
	q.base = uint64(at) >> wheelShift
	return at, fn, a, b
}

// siftDown re-inserts e starting from the root hole: the smallest child
// chain moves up until e's position is found, costing one copy per
// level instead of a swap.
func (q *eventQueue) siftDown(e entry) {
	es := q.es
	n := len(es)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if es[j].before(&es[m]) {
				m = j
			}
		}
		if !es[m].before(&e) {
			break
		}
		es[i] = es[m]
		i = m
	}
	es[i] = e
}

// clearWheel empties every bucket and the bitmaps, zeroing the used
// part of the slab (keeping its capacity).
func (q *eventQueue) clearWheel() {
	if q.w == nil {
		return
	}
	w := q.w
	// Only occupied words have non-empty heads; a released wheel always
	// comes back with every head zero.
	for wd := 0; wd < wheelWords; wd++ {
		if w.occ[wd] != 0 {
			clear(w.head[wd<<6 : wd<<6+64])
			w.occ[wd] = 0
		}
	}
	w.summary = 0
	clear(w.slab)
	w.slab = w.slab[:0]
	w.free = 0
	q.nw = 0
}

// reset empties the queue, keeping the backing storage.
func (q *eventQueue) reset() {
	q.clearWheel()
	q.base = 0
	clear(q.es)
	q.es = q.es[:0]
}

// release empties the queue and returns the backing storage to the
// pools.
func (q *eventQueue) release() {
	q.clearWheel()
	q.base = 0
	if q.w != nil {
		wheelPool.Put(q.w)
		q.w = nil
	}
	box := q.esBox
	if box == nil {
		if q.es == nil {
			return // zero-value engine that never overflowed: nothing to pool
		}
		box = new([]entry) // zero-value engine: es grew without a pool box
	}
	full := q.es[:cap(q.es)]
	clear(full)
	*box = full[:0]
	entrySlicePool.Put(box)
	q.es, q.esBox = nil, nil
}
