// Package cache implements set-associative write-back caches with MSHRs,
// used to build the three-level hierarchy of Table 1 (private L1 and L2,
// shared LLC). The hierarchy is non-inclusive and has no coherence
// protocol: workloads in this reproduction never share blocks between
// cores (each core owns a disjoint address range), matching the
// multi-programmed — not multi-threaded — evaluation of the paper.
package cache

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	BlockSize int
	// Latency is the lookup latency of this level (charged on entry).
	// Per-level lookup latencies add up along the walk, so the defaults
	// elsewhere choose increments that reproduce Table 1's cumulative
	// hit latencies (4 / 12 / 20 CPU cycles).
	Latency sim.Time
	// MSHRs bounds outstanding misses; further misses queue behind them.
	MSHRs int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockSize <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: sizes must be positive", c.Name)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %s: block size must be a power of two, got %d", c.Name, c.BlockSize)
	}
	lines := c.SizeBytes / c.BlockSize
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count must be a power of two, got %d", c.Name, sets)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// mshr tracks one outstanding fill and the requests waiting on it.
// Slots are recycled through the cache's free list with their fill
// request's completion bound once, so a steady-state miss allocates
// nothing: the pool high-water mark is the configured MSHR count (plus
// unbounded-by-config Meta fetches, in practice a handful).
type mshr struct {
	c         *Cache
	blockAddr uint64
	waiters   []*mem.Request
	fillReq   mem.Request
}

// filled completes the fill this slot tracks.
func (m *mshr) filled() { m.c.fill(m) }

// Stats counts cache activity since New or Reset; nothing zeroes it
// mid-run. Misses are demand misses (writeback and coalesced accesses
// are tracked separately).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Coalesced  uint64 // misses merged into an existing MSHR
	Writebacks uint64 // dirty evictions pushed to the next level
	WBForward  uint64 // writeback misses forwarded without allocation
	// PerCoreMisses is indexed by Request.Core when non-negative.
	PerCoreMisses []uint64
}

// Cache is one write-back, write-allocate cache level.
type Cache struct {
	cfg     Config
	eng     *sim.Engine
	lower   mem.Component
	tags    Tags
	dirty   []bool // per tags slot
	setMask uint64
	blkBits uint

	mshrs    map[uint64]*mshr
	mshrPool []*mshr        // recycled MSHR slots
	pending  []*mem.Request // waiting for a free MSHR
	wbFree   []*wbSlot      // recycled writeback requests

	// tel is the live instrument set (nil = telemetry off, the default;
	// see AttachTelemetry).
	tel *cacheTelemetry

	Stats Stats
}

// New builds a cache in front of lower. cores sizes the per-core miss
// counters (0 disables them).
func New(cfg Config, eng *sim.Engine, lower mem.Component, cores int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.BlockSize
	nsets := lines / cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		eng:     eng,
		lower:   lower,
		tags:    NewTags(nsets, cfg.Assoc),
		dirty:   make([]bool, lines),
		setMask: uint64(nsets - 1),
		mshrs:   make(map[uint64]*mshr),
	}
	for b := cfg.BlockSize; b > 1; b >>= 1 {
		c.blkBits++
	}
	if cores > 0 {
		c.Stats.PerCoreMisses = make([]uint64, cores)
	}
	return c, nil
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.blkBits << c.blkBits }
func (c *Cache) setIndex(block uint64) uint64 { return (block >> c.blkBits) & c.setMask }

// lookupEvent is the shared trampoline Access schedules through; with
// the (cache, request) pair carried as bound arguments, entering a
// level allocates nothing (a fresh closure here escaped once per access
// per level and dominated the simulator's allocation profile).
func lookupEvent(a, b any) { a.(*Cache).lookup(b.(*mem.Request)) }

// Access enters a request into this level after the lookup latency.
func (c *Cache) Access(req *mem.Request) {
	c.eng.ScheduleCall(c.cfg.Latency, lookupEvent, c, req)
}

// lookup performs the tag match after the access latency has elapsed.
func (c *Cache) lookup(req *mem.Request) {
	c.Stats.Accesses++
	block := c.blockAddr(req.Addr)
	if c.hit(block, req) {
		c.Stats.Hits++
		return
	}
	// Miss.
	if req.Writeback {
		// Dirty eviction from above that misses here: forward it down
		// without allocating. Fetch-on-writeback would waste bandwidth
		// on a block the upper level just evicted.
		c.Stats.WBForward++
		c.lower.Access(req)
		return
	}
	c.Stats.Misses++
	if req.Core >= 0 && req.Core < len(c.Stats.PerCoreMisses) {
		c.Stats.PerCoreMisses[req.Core]++
	}
	if c.coalesce(block, req) {
		return
	}
	// Meta (translation-table) fetches bypass the MSHR cap: demand misses
	// holding all MSHRs may themselves be waiting on this very fetch, so
	// queueing it would deadlock the hierarchy. Hardware gives the
	// controller's table fetches their own buffer for the same reason.
	if len(c.mshrs) >= c.cfg.MSHRs && !req.Meta {
		c.pending = append(c.pending, req)
		return
	}
	c.allocateMSHR(block, req)
}

// hit completes req if block is resident, making the line most
// recently used and dirtying it on a write.
func (c *Cache) hit(block uint64, req *mem.Request) bool {
	i := c.tags.Find(c.setIndex(block), block)
	if i < 0 {
		return false
	}
	c.tags.Touch(i)
	if req.Write {
		c.dirty[i] = true
	}
	req.Complete()
	return true
}

// coalesce merges req into the outstanding fill for block, if any.
func (c *Cache) coalesce(block uint64, req *mem.Request) bool {
	m, ok := c.mshrs[block]
	if !ok {
		return false
	}
	c.Stats.Coalesced++
	if req.Trace != nil {
		req.Trace.StampMerge(c.eng.Now())
	}
	m.waiters = append(m.waiters, req)
	return true
}

// allocateMSHR starts a fill for block with req as first waiter,
// recycling a pooled slot when one is free.
func (c *Cache) allocateMSHR(block uint64, req *mem.Request) {
	var m *mshr
	if n := len(c.mshrPool); n > 0 {
		m = c.mshrPool[n-1]
		c.mshrPool = c.mshrPool[:n-1]
	} else {
		m = &mshr{c: c}
		m.fillReq.Done = m.filled
	}
	m.blockAddr = block
	m.waiters = append(m.waiters[:0], req)
	c.mshrs[block] = m
	m.fillReq.Addr = block
	m.fillReq.Core = req.Core
	m.fillReq.Meta = req.Meta
	m.fillReq.Issued = c.eng.Now()
	// The fill inherits the leader's span so the lower levels keep
	// stamping the same record; cleared again in fill before the slot is
	// recycled.
	m.fillReq.Trace = req.Trace
	if c.tel != nil {
		c.tel.mshrOcc.Observe(uint64(len(c.mshrs)))
	}
	c.lower.Access(&m.fillReq)
}

// fill installs the block and releases waiters when the lower level
// returns data, then recycles the slot (nothing below holds a
// reference to the fill request once its Done has fired).
func (c *Cache) fill(m *mshr) {
	if c.tel != nil {
		c.tel.fillLat.Observe(uint64((c.eng.Now() - m.fillReq.Issued) / sim.Nanosecond))
	}
	delete(c.mshrs, m.blockAddr)
	c.install(m.blockAddr, m.waiters)
	for _, w := range m.waiters {
		w.Complete()
	}
	c.drainPending()
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.fillReq.Trace = nil
	c.mshrPool = append(c.mshrPool, m)
}

// wbSlot is one pooled writeback request. Its Done — bound once, like
// an MSHR's fill completion — is the recycle hook: a writeback is
// finished with everywhere the moment it completes (a lower-level hit
// stores and completes it; a forward all the way down is acked at the
// controller's posted-write enqueue), and every completion path runs on
// this cache's goroutine, so the freelist needs no lock.
type wbSlot struct {
	r      mem.Request
	c      *Cache
	doneFn func()
}

// recycle returns the slot to its cache's freelist.
func (s *wbSlot) recycle() {
	s.r.Trace = nil
	s.c.wbFree = append(s.c.wbFree, s)
}

// wbSlot pops a recycled writeback slot or mints one.
func (c *Cache) wbSlot() *wbSlot {
	if n := len(c.wbFree); n > 0 {
		s := c.wbFree[n-1]
		c.wbFree[n-1] = nil
		c.wbFree = c.wbFree[:n-1]
		return s
	}
	s := &wbSlot{c: c}
	s.doneFn = s.recycle
	return s
}

// install places block into its set, writing back the dirty victim.
func (c *Cache) install(block uint64, waiters []*mem.Request) {
	v := c.tags.Victim(c.setIndex(block))
	if old, evicted := c.tags.Install(v, block); evicted && c.dirty[v] {
		c.Stats.Writebacks++
		wb := c.wbSlot()
		wb.r = mem.Request{
			Addr:      old,
			Write:     true,
			Writeback: true,
			Core:      -1,
			Issued:    c.eng.Now(),
			Done:      wb.doneFn,
		}
		c.lower.Access(&wb.r)
	}
	c.dirty[v] = slices.ContainsFunc(waiters, func(w *mem.Request) bool { return w.Write })
}

// drainPending retries queued misses now that an MSHR freed up.
func (c *Cache) drainPending() {
	for len(c.pending) > 0 && len(c.mshrs) < c.cfg.MSHRs {
		req := c.pending[0]
		copy(c.pending, c.pending[1:])
		c.pending = c.pending[:len(c.pending)-1]
		block := c.blockAddr(req.Addr)
		// Re-check the tags too: an earlier fill may have brought the
		// block in while this request sat in the pending queue.
		if !c.coalesce(block, req) && !c.hit(block, req) {
			c.allocateMSHR(block, req)
		}
	}
}

// Reset rewinds the cache to its just-constructed state for in-place
// reuse (exp.SystemPool): all tags invalidate, the LRU clock rewinds,
// outstanding MSHRs and queued misses drop, and statistics zero. The
// tag array, MSHR map buckets, and recycled MSHR slots (whose fill
// completions bind this *Cache once) are all retained, so a reset
// allocates nothing. Telemetry detaches; re-attach per run.
func (c *Cache) Reset() {
	c.tags.Reset()
	clear(c.dirty)
	for block, m := range c.mshrs {
		for i := range m.waiters {
			m.waiters[i] = nil
		}
		m.waiters = m.waiters[:0]
		m.fillReq.Trace = nil
		c.mshrPool = append(c.mshrPool, m)
		delete(c.mshrs, block)
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	c.tel = nil
	clear(c.Stats.PerCoreMisses)
	c.Stats = Stats{PerCoreMisses: c.Stats.PerCoreMisses}
}

// Contains reports whether block-aligned addr is resident (test helper and
// used by property tests; not on the timing path).
func (c *Cache) Contains(addr uint64) bool {
	block := c.blockAddr(addr)
	return c.tags.Find(c.setIndex(block), block) >= 0
}

// OutstandingMisses reports the number of live MSHRs (diagnostics).
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }
