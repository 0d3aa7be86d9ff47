package core

import (
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The DAS management path runs on pooled slots: every request it sends
// down (controller requests, table fetches, posted table writes) and
// every promotion in flight is a long-lived struct whose callbacks are
// method values bound once when the slot is minted, so a recycled slot
// makes the whole event allocate nothing. Everything runs on the
// engine's goroutine, so the freelists are plain slices.

// freelist is a LIFO stack of recycled slots.
type freelist[T any] []*T

// pop returns a recycled slot, or nil when the list is empty.
func (f *freelist[T]) pop() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	s := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return s
}

// push returns a slot to the list.
func (f *freelist[T]) push(s *T) { *f = append(*f, s) }

// ctlReq is one pooled controller-request slot: the mc.Request plus the
// completion state enqueue used to capture in a per-access closure.
// Slots are interchangeable: every field the simulation reads is
// overwritten at enqueue.
type ctlReq struct {
	r       mc.Request
	m       *Manager
	done    func()
	trigger bool
	rowID   uint64
	core    int

	doneFn    func(mc.ServiceKind)
	releaseFn func()
}

// complete is the request's Done: the original waiter first, then the
// promotion trigger, exactly as the old closure ordered them.
func (q *ctlReq) complete(kind mc.ServiceKind) {
	if q.done != nil {
		q.done()
	}
	if q.trigger {
		q.m.Stats.SlowTriggers++
		q.m.considerPromotion(q.rowID, q.core)
	}
}

// release returns the slot to the manager's freelist once the
// controller's last touch has passed (mc.Request.Release). Stale
// pointers are cleared so a parked slot pins neither the waiter chain
// nor a trace span.
func (q *ctlReq) release() {
	q.done = nil
	q.r.Trace = nil
	q.m.reqFree.push(q)
}

// ctlReqSlot pops a recycled slot or mints one.
func (m *Manager) ctlReqSlot() *ctlReq {
	if q := m.reqFree.pop(); q != nil {
		return q
	}
	q := &ctlReq{m: m}
	q.doneFn = q.complete
	q.releaseFn = q.release
	return q
}

// tableFetch is one pooled translation-table fetch: the LLC request for
// one table block and the data requests waiting on it. An ECC re-fetch
// re-issues the same slot. Like a cache writeback, the request is
// finished with everywhere the moment its Done fires, so the slot is
// recycled as soon as the waiters are released.
type tableFetch struct {
	r       mem.Request
	m       *Manager
	block   uint64
	waiters []*mem.Request
	// retries counts consecutive corrupt arrivals of this fetch.
	retries int

	doneFn func()
}

// arrived is the fetch request's Done.
func (f *tableFetch) arrived() { f.m.tableBlockArrived(f) }

// recycle returns the slot to the manager's freelist, keeping the
// waiters backing array but not the requests it pointed to.
func (f *tableFetch) recycle() {
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	f.m.fetchFree.push(f)
}

// tableFetchSlot pops a recycled fetch slot (or mints one) for block.
func (m *Manager) tableFetchSlot(block uint64) *tableFetch {
	f := m.fetchFree.pop()
	if f == nil {
		f = &tableFetch{m: m}
		f.doneFn = f.arrived
	}
	f.block, f.retries = block, 0
	return f
}

// tableWrite is one pooled posted table-block write. Its Done is the
// recycle hook: the LLC accepts (or write-allocates and completes) the
// write and never touches it again.
type tableWrite struct {
	r      mem.Request
	m      *Manager
	doneFn func()
}

// recycle returns the slot to the manager's freelist.
func (w *tableWrite) recycle() { w.m.writeFree.push(w) }

// tableWriteSlot pops a recycled write slot or mints one.
func (m *Manager) tableWriteSlot() *tableWrite {
	if w := m.writeFree.pop(); w != nil {
		return w
	}
	w := &tableWrite{m: m}
	w.doneFn = w.recycle
	return w
}

// promotion is one pooled row swap in flight: everything its commit
// needs, from the trigger to the retry path. commitFn is what the
// controller's migration completion (and a free retry's event) calls.
type promotion struct {
	m    *Manager
	grp  *group
	g    uint64
	slot int
	// rowID is the promoted row, core the core whose access triggered it.
	rowID uint64
	core  int
	// victimPhys is the fast slot the row swaps into and victimLogical
	// the row that held it.
	victimPhys, victimLogical int
	// free marks a swap that costs no bank time (DASFM, or a zero
	// migration latency): it commits inline instead of migrating.
	free  bool
	coord dram.Coord

	commitFn func()
}

// recycle returns the slot to the manager's freelist.
func (p *promotion) recycle() { p.m.promoFree.push(p) }

// promotionSlot pops a recycled promotion slot or mints one.
func (m *Manager) promotionSlot() *promotion {
	if p := m.promoFree.pop(); p != nil {
		return p
	}
	p := &promotion{m: m}
	p.commitFn = p.commit
	return p
}

// groupArena carves migration-group state out of manager-owned chunks,
// so a run that touches thousands of groups makes a handful of
// allocations instead of four per group. Carved pieces never return to
// the arena: a group keeps its slices through the freelist, and reuses
// them under any later shape they are large enough for.
type groupArena struct {
	groups []group
	slots  []uint8    // perm and inv entries
	stamps []sim.Time // lastUse entries
}

// arenaChunk is how many groups' worth of state one chunk holds.
const arenaChunk = 256

// group carves one zero group.
func (a *groupArena) group() *group {
	if len(a.groups) == 0 {
		a.groups = make([]group, arenaChunk)
	}
	g := &a.groups[0]
	a.groups = a.groups[1:]
	return g
}

// carve cuts an n-element slice off *chunk, starting a new chunk of
// arenaChunk*n elements when the current one is too short. The result's
// capacity is exactly n, so it can never grow into a neighbour.
func carve[T any](chunk *[]T, n int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, arenaChunk*n)
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}
