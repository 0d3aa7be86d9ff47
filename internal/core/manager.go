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
	// resets: groups allocate lazily on first touch, dominate the
	// manager's steady-state allocation, and are shape-compatible
	// whenever GroupSize and FastDenom carry over (Reset drops the list
	// otherwise).
	freeGroups []*group

	// reqFree recycles controller-request slots (see ctlReq); slots come
	// back through mc.Request.Release. It survives Reset: slots are
	// shape-independent, and reusing them is what makes a pooled
	// machine's steady-state accesses allocation-free. Requests still
	// queued when a run ends are dropped by Controller.Reset and simply
	// fall out of circulation.
	reqFree []*ctlReq

	static  *StaticAssignment
	profile *RowProfile

	tableBase  uint64
	tableBytes uint64

	// pendingTag maps a table block index to data requests waiting on
	// its fetch.
	pendingTag map[uint64][]*mem.Request

	// faults, when non-nil, injects device faults into the management
	// path; checkInv enables the per-swap invariant checker.
	faults   *fault.Injector
	checkInv bool
	// tableRetries counts consecutive corrupt fetches per in-flight
	// table block (allocated lazily, entries removed on acceptance).
	tableRetries map[uint64]int
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
		m.pendingTag = make(map[uint64][]*mem.Request)
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
func (m *Manager) SetFaults(inj *fault.Injector) {
	m.faults = inj
	if inj != nil && m.cfg.Design.Dynamic() {
		m.tableRetries = make(map[uint64]int)
	}
}

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
// migration groups return to a freelist (reusable when GroupSize and
// FastDenom carry over), the tag cache and filter reset in place when
// their shapes match and rebuild otherwise, and the victim picker
// re-seeds from cfg.Seed exactly as NewManager would.
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
	m.tableRetries = nil
	m.consecAbandoned = 0
	m.migBreaker = false
	m.err = nil
	m.tel = nil
	clear(m.Stats.PerCorePromotions)
	m.Stats = Stats{PerCorePromotions: m.Stats.PerCorePromotions}
	if !cfg.Design.Dynamic() {
		return nil
	}
	sameShape := cfg.GroupSize == old.GroupSize && cfg.FastDenom == old.FastDenom
	if !sameShape {
		layout, err := NewLayout(m.geom, cfg.GroupSize, cfg.FastDenom)
		if err != nil {
			return err
		}
		m.layout = layout
		m.freeGroups = nil
	}
	for id, grp := range m.groups {
		if sameShape {
			grp.reset()
			m.freeGroups = append(m.freeGroups, grp)
		}
		delete(m.groups, id)
	}
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
		if waiters, inFlight := m.pendingTag[block]; inFlight {
			m.pendingTag[block] = append(waiters, req)
			return
		}
		m.pendingTag[block] = []*mem.Request{req}
		m.fetchTableBlock(block)
	}
}

// tableBlock returns the table block index holding rowID's entry.
func (m *Manager) tableBlock(rowID uint64) uint64 { return rowID >> 6 }

// tableBlockAddr returns the physical address of a table block.
func (m *Manager) tableBlockAddr(block uint64) uint64 { return m.tableBase + block<<6 }

// fetchTableBlock reads a translation-table block through the LLC; on a
// further miss the LLC fills it from DRAM via this manager (Meta path).
// Missing wiring (no LLC in a dynamic design) is a configuration error:
// it is recorded via fail so the run aborts with a diagnosable cause,
// and the waiters are served identity-mapped from the slow level so the
// requests complete instead of hanging. CheckReady catches this at
// assembly time; this path is the run-time backstop.
func (m *Manager) fetchTableBlock(block uint64) {
	if m.llc == nil {
		m.fail(fmt.Errorf("core: %v translation fetch with no LLC attached (SetLLC not called)", m.cfg.Design))
		for _, req := range m.pendingTag[block] {
			m.enqueue(req, m.geom.Decode(req.Addr), dram.RowSlow, 0, false)
		}
		delete(m.pendingTag, block)
		return
	}
	m.Stats.TableFetches++
	m.llc.Access(&mem.Request{
		Addr:   m.tableBlockAddr(block),
		Meta:   true,
		Core:   -1,
		Issued: m.eng.Now(),
		Done:   func() { m.tableBlockArrived(block) },
	})
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

// tableBlockArrived installs the fetched rows' entries and releases
// waiters. A block that fails its ECC check is re-fetched through the
// LLC path (bounded by maxTableRefetches) rather than installed, so a
// corrupt translation never misdirects a request.
func (m *Manager) tableBlockArrived(block uint64) {
	if m.faults != nil {
		if m.faults.TableBlockCorrupt() && m.tableRetries[block] < maxTableRefetches {
			m.tableRetries[block]++
			m.Stats.Faults.TableRefetches++
			m.noteFault("fault: table ECC", int64(block))
			m.fetchTableBlock(block)
			return
		}
		delete(m.tableRetries, block)
	}
	waiters := m.pendingTag[block]
	delete(m.pendingTag, block)
	for _, req := range waiters {
		coord := m.geom.Decode(req.Addr)
		rowID := m.geom.RowID(coord)
		m.tagCache.Insert(rowID)
		m.translateAndEnqueue(req, coord, rowID)
	}
}

// PendingTranslations reports data requests currently waiting on
// table-block fetches (watchdog diagnostics).
func (m *Manager) PendingTranslations() int {
	n := 0
	for _, waiters := range m.pendingTag {
		n += len(waiters)
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
	for block, waiters := range m.pendingTag {
		out += fmt.Sprintf(" block %d (%d waiters)", block, len(waiters))
	}
	return out + "\n"
}

// group returns (allocating on demand) the translation state of g,
// recycling a reset group from the freelist when one is available.
func (m *Manager) group(g uint64) *group {
	grp, ok := m.groups[g]
	if !ok {
		if n := len(m.freeGroups); n > 0 {
			grp = m.freeGroups[n-1]
			m.freeGroups[n-1] = nil
			m.freeGroups = m.freeGroups[:n-1]
		} else {
			grp = newGroup(m.layout.GroupSize(), m.layout.FastSlots())
		}
		m.groups[g] = grp
	}
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

// ctlReq is one pooled controller-request slot: the mc.Request plus the
// completion state enqueue used to capture in a per-access closure. The
// doneFn/releaseFn method values are bound once when the slot is
// created, so a recycled slot makes a whole DRAM access allocate
// nothing. Slots are interchangeable: every field the simulation reads
// is overwritten at enqueue.
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
	q.m.reqFree = append(q.m.reqFree, q)
}

// ctlReqSlot pops a recycled slot or mints one (two allocations: the
// slot and its bound method values — paid once, amortized across the
// run and across pooled-machine resets, which keep the freelist).
func (m *Manager) ctlReqSlot() *ctlReq {
	if n := len(m.reqFree); n > 0 {
		q := m.reqFree[n-1]
		m.reqFree[n-1] = nil
		m.reqFree = m.reqFree[:n-1]
		return q
	}
	q := &ctlReq{m: m}
	q.doneFn = q.complete
	q.releaseFn = q.release
	return q
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
	victimLogical := int(grp.inv[victimPhys])
	grp.migrating = true
	free := m.cfg.Design == DASFM || m.ctl.Device().MigrationLatency() == 0
	// The swap starts from the promotee's current physical row (likely
	// still open in the row buffer from the triggering access).
	coord := m.geom.RowCoord(m.layout.RowOf(g, phys))
	var commit func()
	commit = func() {
		if m.faults != nil && m.faults.MigrationFails() {
			m.Stats.Faults.MigFailures++
			m.noteFault("fault: migration", int64(rowID))
			if grp.retries < m.cfg.MigRetries {
				grp.retries++
				m.Stats.Faults.MigRetries++
				if free {
					// Bound recursion depth and keep event ordering
					// uniform: retry on a fresh event.
					m.eng.Schedule(0, commit)
				} else {
					m.ctl.Migrate(coord.Channel, coord.Rank, coord.Bank, coord.Row, commit)
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
			grp.pin(slot)
			m.Stats.Faults.PinnedRows++
			m.noteFault("pinned slow", int64(rowID))
			m.consecAbandoned++
			if m.consecAbandoned >= migBreakerThreshold && !m.migBreaker {
				m.migBreaker = true
				m.Stats.Faults.MigBreakerTrips++
				m.noteFault("migration breaker trip", -1)
			}
			return
		}
		grp.retries = 0
		m.consecAbandoned = 0
		grp.swap(slot, victimLogical)
		grp.lastUse[victimPhys] = m.eng.Now()
		grp.migrating = false
		m.Stats.Promotions++
		if coreID >= 0 && coreID < len(m.Stats.PerCorePromotions) {
			m.Stats.PerCorePromotions[coreID]++
		}
		victimRow := m.layout.RowOf(g, victimLogical)
		// The swap just computed both rows' new entries: keep them hot in
		// the tag cache (the promoted row is about to be re-accessed).
		m.tagCache.Insert(rowID)
		m.tagCache.Insert(victimRow)
		m.writeTableEntries(rowID, victimRow)
		if m.checkInv {
			if err := m.checkSwap(g, grp, rowID, victimRow); err != nil {
				m.fail(err)
			}
		}
	}
	if free {
		commit()
		return
	}
	m.ctl.Migrate(coord.Channel, coord.Rank, coord.Bank, coord.Row, commit)
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
	m.llc.Access(&mem.Request{
		Addr:   m.tableBlockAddr(block),
		Write:  true,
		Meta:   true,
		Core:   -1,
		Issued: m.eng.Now(),
	})
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
