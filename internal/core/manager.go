package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FaultStats counts degradation activity on a faulty device (all zero
// when no fault injector is attached).
type FaultStats struct {
	// MigFailures counts migrations that failed at completion.
	MigFailures uint64
	// MigRetries counts re-issued migrations after a failure.
	MigRetries uint64
	// PinnedRows counts rows pinned to the slow level after exhausting
	// their migration retries.
	PinnedRows uint64
	// FencedGroups counts migration groups fenced out of promotion
	// because every fast slot is weak.
	FencedGroups uint64
	// WeakServices counts demand accesses to weak fast rows, derated to
	// slow timing.
	WeakServices uint64
	// TagCorruptions counts tag-cache hits discarded on a parity fault.
	TagCorruptions uint64
	// TableRefetches counts translation-table blocks re-fetched after a
	// failed ECC check.
	TableRefetches uint64
	// MigBreakerTrips counts trips of the migration circuit breaker
	// (0 or 1 per system): after migBreakerThreshold consecutive
	// abandoned swaps with no success in between, the migration lane is
	// treated as broken and promotion stops device-wide.
	MigBreakerTrips uint64
}

// Stats counts management activity since NewManager or Reset; nothing
// zeroes it mid-run (exp takes the measurement window by subtraction,
// and reports Faults whole-run: they record the device's one-time
// degradation adaptation, which is concentrated in warm-up).
type Stats struct {
	// Promotions counts committed row swaps (migration completions).
	Promotions uint64
	// PerCorePromotions attributes promotions to the triggering core.
	PerCorePromotions []uint64
	// SlowTriggers counts demand reads serviced from the slow level (the
	// promotion trigger events).
	SlowTriggers uint64
	// TableFetches counts translation-table blocks fetched through the
	// LLC after a tag-cache miss.
	TableFetches uint64
	// TableWrites counts translation-table update writes.
	TableWrites uint64
	// Faults aggregates fault-handling activity.
	Faults FaultStats
}

// Manager is the DAS-DRAM management unit: it translates LLC-miss traffic
// to physical row locations, steers it to the memory controller with the
// right timing class, and schedules promotions. It also implements the
// paper's comparison designs (see Design).
type Manager struct {
	cfg    Config
	eng    *sim.Engine
	geom   dram.Geometry
	ctl    *mc.Controller
	llc    mem.Component
	layout *Layout

	groups   map[uint64]*group
	tagCache *TagCache
	filter   *Filter
	picker   victimPicker

	// freeGroups recycles group translation state across pooled-machine
	// resets: groups allocate lazily on first touch and Reset returns
	// every one of them here, whatever the next run's shape (takeGroup
	// re-initializes a group when it hands it out). arena is where group
	// state is carved from when no recycled group is large enough.
	freeGroups freelist[group]
	arena      groupArena

	// Slot freelists (see slots.go): controller requests, table fetches,
	// posted table writes and promotions. They survive Reset — slots are
	// shape-independent, and reusing them is what makes a pooled
	// machine's steady-state management path allocation-free. Slots
	// still in flight when a run ends are dropped with the engine's and
	// controller's queues and simply fall out of circulation.
	reqFree   freelist[ctlReq]
	fetchFree freelist[tableFetch]
	writeFree freelist[tableWrite]
	promoFree freelist[promotion]

	static  *StaticAssignment
	profile *RowProfile

	tableBase  uint64
	tableBytes uint64

	// pendingTag maps a table block index to its in-flight fetch, which
	// holds the data requests waiting on it.
	pendingTag map[uint64]*tableFetch

	// faults, when non-nil, injects device faults into the management
	// path; checkInv enables the per-swap invariant checker.
	faults   *fault.Injector
	checkInv bool
	// consecAbandoned counts migrations abandoned (row pinned) since the
	// last successful commit; migBreaker latches once it reaches
	// migBreakerThreshold, disabling promotion device-wide so a broken
	// migration lane stops costing bank time.
	consecAbandoned int
	migBreaker      bool
	// err records the first structured failure (invariant violation or
	// configuration misuse detected mid-run); see Err.
	err error

	// tel carries the trace hook for fault events (nil = telemetry off,
	// the default; see AttachTelemetry).
	tel *coreTelemetry

	Stats Stats
}

// NewManager builds a manager for design cfg.Design in front of ctl.
// cores sizes per-core counters. For static designs supply the
// assignment via SetStaticAssignment before running; for translation
// lookups the shared LLC must be attached via SetLLC.
func NewManager(cfg Config, eng *sim.Engine, ctl *mc.Controller, cores int) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := ctl.Device().Geometry()
	m := &Manager{
		cfg:  cfg,
		eng:  eng,
		geom: geom,
		ctl:  ctl,
	}
	if cores > 0 {
		m.Stats.PerCorePromotions = make([]uint64, cores)
	}
	m.tableBytes = TableReserveBytes(geom)
	m.tableBase = geom.Capacity() - m.tableBytes
	if cfg.Design.Dynamic() {
		layout, err := NewLayout(geom, cfg.GroupSize, cfg.FastDenom)
		if err != nil {
			return nil, err
		}
		m.layout = layout
		tc, err := NewTagCache(cfg.TagCacheBytes, cfg.TagCacheAssoc)
		if err != nil {
			return nil, err
		}
		m.tagCache = tc
		f, err := NewFilter(cfg.FilterThreshold, cfg.FilterCounters)
		if err != nil {
			return nil, err
		}
		m.filter = f
		m.groups = make(map[uint64]*group)
		m.picker = victimPicker{policy: cfg.Replacement, rng: sim.NewRNG(cfg.Seed)}
		m.pendingTag = make(map[uint64]*tableFetch)
	}
	return m, nil
}

// SetLLC attaches the last-level cache used for translation-table
// lookups. Must be called before any DAS-mode access (the LLC is built
// after the manager because the manager is the LLC's lower level);
// CheckReady verifies the wiring.
func (m *Manager) SetLLC(llc mem.Component) { m.llc = llc }

// CheckReady validates run-time wiring that the constructor cannot see
// (the LLC is built after the manager). Call it once assembly is
// complete, before driving traffic.
func (m *Manager) CheckReady() error {
	if m.cfg.Design.Dynamic() && m.llc == nil {
		return fmt.Errorf("core: %v requires an attached LLC for translation lookups (call SetLLC)", m.cfg.Design)
	}
	if m.cfg.Design.Static() && m.static == nil {
		return fmt.Errorf("core: %v requires a static assignment (call SetStaticAssignment)", m.cfg.Design)
	}
	return nil
}

// SetFaults attaches a fault injector. Must be set before traffic;
// a nil injector (the default) models a perfect device and leaves the
// management path byte-identical to a build without fault support.
func (m *Manager) SetFaults(inj *fault.Injector) { m.faults = inj }

// Faults returns the attached injector (nil when none).
func (m *Manager) Faults() *fault.Injector { return m.faults }

// EnableInvariantChecks turns on the per-swap invariant checker: after
// every committed promotion the affected group's translation state is
// verified (see CheckInvariants) and the first violation is recorded as
// a structured error retrievable via Err.
func (m *Manager) EnableInvariantChecks() { m.checkInv = true }

// Err returns the first structured failure recorded during the run:
// an *InvariantError from the checker, or a configuration-misuse error
// detected on the access path. A non-nil value means subsequent results
// are untrustworthy and the run should be aborted.
func (m *Manager) Err() error { return m.err }

// fail records the first structured failure.
func (m *Manager) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// SetStaticAssignment installs the profiled fast-row set (SAS/CHARM).
func (m *Manager) SetStaticAssignment(a *StaticAssignment) { m.static = a }

// EnableProfiling starts recording per-row demand-read counts and
// returns the profile being filled.
func (m *Manager) EnableProfiling() *RowProfile {
	m.profile = NewRowProfile()
	return m.profile
}

// TagCache exposes the translation cache (nil for non-dynamic designs).
func (m *Manager) TagCache() *TagCache { return m.tagCache }

// Filter exposes the promotion filter (nil for non-dynamic designs).
func (m *Manager) Filter() *Filter { return m.filter }

// Layout exposes the migration-group layout (nil for non-dynamic designs).
func (m *Manager) Layout() *Layout { return m.layout }

// UsableBytes returns the capacity available to workloads: total memory
// minus the reserved translation-table region.
func (m *Manager) UsableBytes() uint64 { return m.tableBase }

// TableBase returns the first byte of the reserved table region.
func (m *Manager) TableBase() uint64 { return m.tableBase }

// Reset rewinds the manager to its just-constructed state for in-place
// reuse (exp.SystemPool), adopting cfg's management knobs. The design
// is pinned (the pool keys machines by design), as are the engine,
// controller, and geometry; everything attached per run — LLC, static
// assignment, profile, fault injector, telemetry — detaches. Touched
// migration groups return to a freelist, the tag cache and filter reset
// in place when their shapes match and rebuild otherwise, and the
// victim picker re-seeds from cfg.Seed exactly as NewManager would.
func (m *Manager) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Design != m.cfg.Design {
		return fmt.Errorf("core: reset with design %v on a manager built for %v", cfg.Design, m.cfg.Design)
	}
	old := m.cfg
	m.cfg = cfg
	m.llc = nil
	m.static, m.profile = nil, nil
	m.faults = nil
	m.checkInv = false
	m.consecAbandoned = 0
	m.migBreaker = false
	m.err = nil
	m.tel = nil
	clear(m.Stats.PerCorePromotions)
	m.Stats = Stats{PerCorePromotions: m.Stats.PerCorePromotions}
	if !cfg.Design.Dynamic() {
		return nil
	}
	if cfg.GroupSize != old.GroupSize || cfg.FastDenom != old.FastDenom {
		layout, err := NewLayout(m.geom, cfg.GroupSize, cfg.FastDenom)
		if err != nil {
			return err
		}
		m.layout = layout
	}
	for _, grp := range m.groups {
		m.freeGroups.push(grp)
	}
	clear(m.groups)
	if cfg.TagCacheBytes == old.TagCacheBytes && cfg.TagCacheAssoc == old.TagCacheAssoc {
		m.tagCache.Reset()
	} else {
		tc, err := NewTagCache(cfg.TagCacheBytes, cfg.TagCacheAssoc)
		if err != nil {
			return err
		}
		m.tagCache = tc
	}
	if cfg.FilterThreshold == old.FilterThreshold && cfg.FilterCounters == old.FilterCounters {
		m.filter.Reset()
	} else {
		f, err := NewFilter(cfg.FilterThreshold, cfg.FilterCounters)
		if err != nil {
			return err
		}
		m.filter = f
	}
	m.picker = victimPicker{policy: cfg.Replacement, rng: sim.NewRNG(cfg.Seed)}
	clear(m.pendingTag)
	return nil
}

// Access implements mem.Component for LLC-miss traffic (fills,
// writebacks, and recursive translation-table requests).
func (m *Manager) Access(req *mem.Request) {
	if req.Meta || req.Addr >= m.tableBase {
		// Translation-table region: identity-mapped, slow subarrays.
		coord := m.geom.Decode(req.Addr)
		m.enqueue(req, coord, dram.RowSlow, 0, false)
		return
	}
	coord := m.geom.Decode(req.Addr)
	rowID := m.geom.RowID(coord)
	if m.profile != nil && !req.Write {
		m.profile.Record(rowID)
	}
	switch m.cfg.Design {
	case Standard:
		m.enqueue(req, coord, dram.RowSlow, rowID, false)
	case FS:
		m.enqueue(req, coord, dram.RowFast, rowID, false)
	case SAS, CHARM:
		cls := dram.RowSlow
		if m.static.IsFast(rowID) {
			cls = dram.RowFast
		}
		m.enqueue(req, coord, cls, rowID, false)
	default: // DAS, DASFM
		if m.tagCache.Lookup(rowID) {
			if m.faults == nil || !m.faults.TagEntryCorrupt() {
				m.translateAndEnqueue(req, coord, rowID)
				return
			}
			// Parity fault on the cached entry: drop it and fall through
			// to the miss path so the entry is re-fetched through the LLC
			// instead of misdirecting the request.
			m.Stats.Faults.TagCorruptions++
			m.noteFault("fault: tag parity", int64(rowID))
			m.tagCache.Invalidate(rowID)
		}
		// Tag-cache miss: everything from here to enqueue is translation
		// wait (table-block fetch through the LLC).
		if req.Trace != nil {
			req.Trace.StampXlat(m.eng.Now())
		}
		block := m.tableBlock(rowID)
		if f, inFlight := m.pendingTag[block]; inFlight {
			f.waiters = append(f.waiters, req)
			return
		}
		f := m.tableFetchSlot(block)
		f.waiters = append(f.waiters, req)
		m.pendingTag[block] = f
		m.fetchTableBlock(f)
	}
}

// tableBlock returns the table block index holding rowID's entry.
func (m *Manager) tableBlock(rowID uint64) uint64 { return rowID >> 6 }

// tableBlockAddr returns the physical address of a table block.
func (m *Manager) tableBlockAddr(block uint64) uint64 { return m.tableBase + block<<6 }

// fetchTableBlock reads f's translation-table block through the LLC; on
// a further miss the LLC fills it from DRAM via this manager (Meta path).
// Missing wiring (no LLC in a dynamic design) is a configuration error:
// it is recorded via fail so the run aborts with a diagnosable cause,
// and the waiters are served identity-mapped from the slow level so the
// requests complete instead of hanging. CheckReady catches this at
// assembly time; this path is the run-time backstop.
func (m *Manager) fetchTableBlock(f *tableFetch) {
	if m.llc == nil {
		m.fail(fmt.Errorf("core: %v translation fetch with no LLC attached (SetLLC not called)", m.cfg.Design))
		for _, req := range f.waiters {
			m.enqueue(req, m.geom.Decode(req.Addr), dram.RowSlow, 0, false)
		}
		delete(m.pendingTag, f.block)
		f.recycle()
		return
	}
	m.Stats.TableFetches++
	f.r = mem.Request{
		Addr:   m.tableBlockAddr(f.block),
		Meta:   true,
		Core:   -1,
		Issued: m.eng.Now(),
		Done:   f.doneFn,
	}
	m.llc.Access(&f.r)
}

// maxTableRefetches bounds consecutive ECC re-fetches of one table
// block: after this many corrupt arrivals the entry is accepted as
// corrected (real controllers fall back to stronger correction or a
// scrub), guaranteeing forward progress even at corruption rate 1.
const maxTableRefetches = 4

// migBreakerThreshold is how many consecutive abandoned migrations
// (each already MigRetries failures deep, with no success in between)
// trip the device-wide migration circuit breaker. At the default 3
// retries a single trip needs 64 back-to-back failures — vanishingly
// unlikely unless the lane itself is broken, in which case continuing
// to retry only burns bank time for rows that will be pinned anyway.
const migBreakerThreshold = 16

// tableBlockArrived installs the fetched rows' entries, releases the
// waiters and recycles the fetch. A block that fails its ECC check is
// re-fetched through the LLC path on the same slot (bounded by
// maxTableRefetches) rather than installed, so a corrupt translation
// never misdirects a request.
func (m *Manager) tableBlockArrived(f *tableFetch) {
	if m.faults != nil && m.faults.TableBlockCorrupt() && f.retries < maxTableRefetches {
		f.retries++
		m.Stats.Faults.TableRefetches++
		m.noteFault("fault: table ECC", int64(f.block))
		m.fetchTableBlock(f)
		return
	}
	delete(m.pendingTag, f.block)
	for _, req := range f.waiters {
		coord := m.geom.Decode(req.Addr)
		rowID := m.geom.RowID(coord)
		m.tagCache.Insert(rowID)
		m.translateAndEnqueue(req, coord, rowID)
	}
	f.recycle()
}

// PendingTranslations reports data requests currently waiting on
// table-block fetches (watchdog diagnostics).
func (m *Manager) PendingTranslations() int {
	n := 0
	for _, f := range m.pendingTag {
		n += len(f.waiters)
	}
	return n
}

// DescribePending renders the in-flight translation fetches (watchdog
// stall reports).
func (m *Manager) DescribePending() string {
	if len(m.pendingTag) == 0 {
		return ""
	}
	out := fmt.Sprintf("manager: %d table block(s) in flight:", len(m.pendingTag))
	for block, f := range m.pendingTag {
		out += fmt.Sprintf(" block %d (%d waiters)", block, len(f.waiters))
	}
	return out + "\n"
}

// group returns (allocating on demand) the translation state of g.
func (m *Manager) group(g uint64) *group {
	grp, ok := m.groups[g]
	if !ok {
		grp = m.takeGroup()
		m.groups[g] = grp
	}
	return grp
}

// takeGroup hands out a group of the current shape in its initial state:
// a recycled one when the freelist has any, with its slices carved anew
// from the arena only when they are too small for the shape.
func (m *Manager) takeGroup() *group {
	size, fast := m.layout.GroupSize(), m.layout.FastSlots()
	grp := m.freeGroups.pop()
	if grp == nil {
		grp = m.arena.group()
	}
	if cap(grp.perm) < size {
		grp.perm, grp.inv = carve(&m.arena.slots, size), carve(&m.arena.slots, size)
	}
	if cap(grp.lastUse) < fast {
		grp.lastUse = carve(&m.arena.stamps, fast)
	}
	grp.init(size, fast)
	return grp
}

// translateAndEnqueue applies the group permutation and issues the
// physical access.
func (m *Manager) translateAndEnqueue(req *mem.Request, coord dram.Coord, rowID uint64) {
	g, slot := m.layout.GroupOf(rowID)
	grp := m.group(g)
	phys := int(grp.perm[slot])
	localGroupBase := coord.Row / m.layout.GroupSize() * m.layout.GroupSize()
	coord.Row = localGroupBase + phys
	cls := dram.RowSlow
	if m.layout.SlotIsFast(phys) {
		if m.slotWeak(g, phys) {
			// Weak fast row: the data is intact but the short-bitline
			// sensing margin is not, so the access is derated to
			// conservative (slow) timing.
			m.Stats.Faults.WeakServices++
		} else {
			cls = dram.RowFast
			grp.lastUse[phys] = m.eng.Now()
		}
	}
	m.enqueue(req, coord, cls, rowID, cls == dram.RowSlow && !req.Write)
}

// slotWeak reports whether group g's fast physical slot phys maps to a
// weak fast-subarray row.
func (m *Manager) slotWeak(g uint64, phys int) bool {
	return m.faults != nil && m.faults.WeakRow(m.layout.RowOf(g, phys))
}

// groupFenced reports (computing once) whether every fast slot of group
// g is weak, in which case the group degrades to slow-only service and
// is fenced out of promotion entirely.
func (m *Manager) groupFenced(g uint64, grp *group) bool {
	if m.faults == nil {
		return false
	}
	if !grp.fencedKnown {
		grp.fencedKnown = true
		grp.fenced = true
		for p := 0; p < m.layout.FastSlots(); p++ {
			if !m.slotWeak(g, p) {
				grp.fenced = false
				break
			}
		}
		if grp.fenced {
			m.Stats.Faults.FencedGroups++
		}
	}
	return grp.fenced
}

// enqueue forwards to the memory controller, wiring completion and the
// promotion trigger.
func (m *Manager) enqueue(req *mem.Request, coord dram.Coord, cls dram.RowClass, rowID uint64, trigger bool) {
	q := m.ctlReqSlot()
	q.r = mc.Request{
		Coord: coord,
		Class: cls,
		Write: req.Write,
		Meta:  req.Meta || req.Addr >= m.tableBase,
		Core:  req.Core,
		Trace: req.Trace,
	}
	q.done = req.Done
	q.trigger = trigger
	q.rowID = rowID
	q.core = req.Core
	dreq := &q.r
	dreq.Done = q.doneFn
	dreq.Release = q.releaseFn
	// Posted writes complete at enqueue inside the controller.
	m.ctl.Enqueue(dreq)
}

// considerPromotion runs the Section 5.3 trigger: filter the row, pick a
// victim, and schedule the swap. On a faulty device it additionally
// fences degraded groups, skips pinned rows and weak victim slots, and
// retries failed migrations up to the configured limit before pinning
// the row in the slow level.
func (m *Manager) considerPromotion(rowID uint64, coreID int) {
	if m.migBreaker {
		return // migration lane judged broken; serve slow-only
	}
	g, slot := m.layout.GroupOf(rowID)
	grp := m.group(g)
	if grp.migrating {
		return
	}
	if m.groupFenced(g, grp) || grp.isPinned(slot) {
		return // degraded to slow-only service
	}
	phys := int(grp.perm[slot])
	if m.layout.SlotIsFast(phys) {
		return // promoted by an earlier in-flight trigger
	}
	if !m.filter.Allow(rowID) {
		return
	}
	var usable func(int) bool
	if m.faults != nil {
		usable = func(p int) bool { return !m.slotWeak(g, p) }
	}
	victimPhys := m.picker.pick(grp, m.layout.FastSlots(), usable)
	grp.migrating = true
	p := m.promotionSlot()
	p.grp, p.g, p.slot, p.rowID, p.core = grp, g, slot, rowID, coreID
	p.victimPhys, p.victimLogical = victimPhys, int(grp.inv[victimPhys])
	p.free = m.cfg.Design == DASFM || m.ctl.Device().MigrationLatency() == 0
	// The swap starts from the promotee's current physical row (likely
	// still open in the row buffer from the triggering access).
	p.coord = m.geom.RowCoord(m.layout.RowOf(g, phys))
	if p.free {
		p.commit()
		return
	}
	m.ctl.Migrate(p.coord.Channel, p.coord.Rank, p.coord.Bank, p.coord.Row, p.commitFn)
}

// commit completes p's swap, or on an injected migration failure retries
// it (up to MigRetries) or abandons it and pins the row slow. The slot
// goes back to the freelist once the swap commits or is abandoned.
func (p *promotion) commit() {
	m, grp := p.m, p.grp
	if m.faults != nil && m.faults.MigrationFails() {
		m.Stats.Faults.MigFailures++
		m.noteFault("fault: migration", int64(p.rowID))
		if grp.retries < m.cfg.MigRetries {
			grp.retries++
			m.Stats.Faults.MigRetries++
			if p.free {
				// Bound recursion depth and keep event ordering
				// uniform: retry on a fresh event.
				m.eng.Schedule(0, p.commitFn)
			} else {
				m.ctl.Migrate(p.coord.Channel, p.coord.Rank, p.coord.Bank, p.coord.Row, p.commitFn)
			}
			return
		}
		// Retries exhausted: abandon the swap and pin the row slow so
		// the marginal lane is never exercised for it again. Enough
		// consecutive abandonments (without a single success) indict
		// the migration lane itself, not the row: trip the breaker and
		// stop promoting device-wide.
		grp.retries = 0
		grp.migrating = false
		grp.pin(p.slot)
		m.Stats.Faults.PinnedRows++
		m.noteFault("pinned slow", int64(p.rowID))
		m.consecAbandoned++
		if m.consecAbandoned >= migBreakerThreshold && !m.migBreaker {
			m.migBreaker = true
			m.Stats.Faults.MigBreakerTrips++
			m.noteFault("migration breaker trip", -1)
		}
		p.recycle()
		return
	}
	grp.retries = 0
	m.consecAbandoned = 0
	grp.swap(p.slot, p.victimLogical)
	grp.lastUse[p.victimPhys] = m.eng.Now()
	grp.migrating = false
	m.Stats.Promotions++
	if p.core >= 0 && p.core < len(m.Stats.PerCorePromotions) {
		m.Stats.PerCorePromotions[p.core]++
	}
	victimRow := m.layout.RowOf(p.g, p.victimLogical)
	// The swap just computed both rows' new entries: keep them hot in
	// the tag cache (the promoted row is about to be re-accessed).
	m.tagCache.Insert(p.rowID)
	m.tagCache.Insert(victimRow)
	m.writeTableEntries(p.rowID, victimRow)
	if m.checkInv {
		if err := m.checkSwap(p.g, grp, p.rowID, victimRow); err != nil {
			m.fail(err)
		}
	}
	p.recycle()
}

// writeTableEntries posts updates of the two swapped rows' table entries
// through the LLC (keeping LLC copies coherent with the in-DRAM table).
func (m *Manager) writeTableEntries(rowA, rowB uint64) {
	blockA := m.tableBlock(rowA)
	blockB := m.tableBlock(rowB)
	m.postTableWrite(blockA)
	if blockB != blockA {
		m.postTableWrite(blockB)
	}
}

// postTableWrite issues one posted table-block write.
func (m *Manager) postTableWrite(block uint64) {
	m.Stats.TableWrites++
	w := m.tableWriteSlot()
	w.r = mem.Request{
		Addr:   m.tableBlockAddr(block),
		Write:  true,
		Meta:   true,
		Core:   -1,
		Issued: m.eng.Now(),
		Done:   w.doneFn,
	}
	m.llc.Access(&w.r)
}

// PhysicalRow reports the current physical slot class of a logical row
// (diagnostics and tests).
func (m *Manager) PhysicalRow(rowID uint64) (physRow uint64, fast bool, err error) {
	if !m.cfg.Design.Dynamic() {
		return 0, false, fmt.Errorf("core: PhysicalRow requires a dynamic design")
	}
	g, slot := m.layout.GroupOf(rowID)
	grp := m.group(g)
	phys := int(grp.perm[slot])
	return m.layout.RowOf(g, phys), m.layout.SlotIsFast(phys), nil
}
