package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/timing"
)

// harness wires a manager to a real controller/device with a trivial
// LLC stub for translation lookups.
type harness struct {
	eng *sim.Engine
	dev *dram.Device
	ctl *mc.Controller
	mgr *Manager
	llc *stubLLC
}

// stubLLC forwards every access to the manager after a fixed delay,
// counting traffic (it is the manager's translation path). It forwards
// through a ScheduleCall trampoline rather than a closure, so the stub
// allocates nothing and any allocation a test sees is the manager's (or
// the controller's) own.
type stubLLC struct {
	eng      *sim.Engine
	mgr      *Manager
	delay    sim.Time
	accesses int
}

func stubForward(mgr, req any) { mgr.(*Manager).Access(req.(*mem.Request)) }

func (s *stubLLC) Access(req *mem.Request) {
	s.accesses++
	s.eng.ScheduleCall(s.delay, stubForward, s.mgr, req)
}

func newHarness(t *testing.T, design Design, migLatNS float64) *harness {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := dram.New(dram.Config{
		Geometry:         dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 16, BlockSize: 64},
		Slow:             timing.DDR31600Slow(),
		Fast:             timing.DDR31600Fast(),
		MigrationLatency: sim.FromNS(migLatNS),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := mc.New(mc.DefaultConfig(), eng, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(design)
	cfg.GroupSize = 16
	cfg.TagCacheBytes = 1 << 10
	mgr, err := NewManager(cfg, eng, ctl, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, dev: dev, ctl: ctl, mgr: mgr}
	h.llc = &stubLLC{eng: eng, mgr: mgr, delay: 1000}
	mgr.SetLLC(h.llc)
	return h
}

// read issues a demand read and steps the engine until it completes.
func (h *harness) read(t *testing.T, addr uint64) {
	t.Helper()
	done := false
	h.mgr.Access(&mem.Request{Addr: addr, Core: 0, Issued: h.eng.Now(), Done: func() { done = true }})
	for !done {
		if !h.eng.Step() {
			t.Fatal("engine drained mid-read")
		}
	}
}

// settle runs until all pending work (e.g. migrations) completes.
func (h *harness) settle() {
	for h.ctl.PendingMigrations() > 0 {
		if !h.eng.Step() {
			return
		}
	}
	// Drain a little longer for posted writes.
	h.eng.RunUntil(h.eng.Now() + sim.FromNS(500))
}

func TestStandardNeverTouchesFast(t *testing.T) {
	h := newHarness(t, Standard, 0)
	for i := uint64(0); i < 32; i++ {
		h.read(t, i*8192)
	}
	if s := h.dev.CollectStats(); s.ActivatesFast != 0 {
		t.Fatal("standard design activated fast rows")
	}
}

func TestFSAlwaysFast(t *testing.T) {
	h := newHarness(t, FS, 0)
	for i := uint64(0); i < 32; i++ {
		h.read(t, i*8192)
	}
	s := h.dev.CollectStats()
	if s.ActivatesFast != s.Activates {
		t.Fatalf("FS activated %d fast of %d", s.ActivatesFast, s.Activates)
	}
}

func TestDASPromotesOnSlowRead(t *testing.T) {
	h := newHarness(t, DAS, 146.25)
	geom := h.dev.Geometry()
	// Logical row 8 (slot 8 of group 0 with 16-row groups) starts slow.
	addr := geom.Encode(geom.RowCoord(8))
	rowID := uint64(8)
	if _, fast, _ := h.mgr.PhysicalRow(rowID); fast {
		t.Fatal("row 8 unexpectedly fast initially")
	}
	h.read(t, addr)
	h.settle()
	if h.mgr.Stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", h.mgr.Stats.Promotions)
	}
	if _, fast, _ := h.mgr.PhysicalRow(rowID); !fast {
		t.Fatal("row not fast after promotion")
	}
	if h.dev.CollectStats().Migrations != 1 {
		t.Fatal("no device migration issued")
	}
	// The displaced victim took the promotee's old physical slot.
	phys, _, _ := h.mgr.PhysicalRow(rowID)
	if phys == 8 {
		t.Fatal("promoted row still at its original physical slot")
	}
	// Second access is served fast, without another promotion.
	h.read(t, addr)
	h.settle()
	if h.mgr.Stats.Promotions != 1 {
		t.Fatal("re-access of fast row promoted again")
	}
}

func TestDASFMCommitsInstantly(t *testing.T) {
	h := newHarness(t, DASFM, 0)
	geom := h.dev.Geometry()
	h.read(t, geom.Encode(geom.RowCoord(9)))
	if h.mgr.Stats.Promotions != 1 {
		t.Fatalf("FM promotions = %d, want 1", h.mgr.Stats.Promotions)
	}
	if h.dev.CollectStats().Migrations != 0 {
		t.Fatal("FM issued a device migration")
	}
	if _, fast, _ := h.mgr.PhysicalRow(9); !fast {
		t.Fatal("FM mapping not updated")
	}
}

func TestFastReadDoesNotPromote(t *testing.T) {
	h := newHarness(t, DAS, 146.25)
	geom := h.dev.Geometry()
	// Logical row 1 starts in a fast slot (identity mapping, slot < 2).
	h.read(t, geom.Encode(geom.RowCoord(1)))
	h.settle()
	if h.mgr.Stats.Promotions != 0 {
		t.Fatal("fast-resident row triggered promotion")
	}
}

func TestWritesDoNotPromote(t *testing.T) {
	h := newHarness(t, DAS, 146.25)
	geom := h.dev.Geometry()
	addr := geom.Encode(geom.RowCoord(8))
	h.mgr.Access(&mem.Request{Addr: addr, Write: true, Writeback: true, Core: -1})
	h.eng.RunUntil(h.eng.Now() + sim.FromNS(2000))
	if h.mgr.Stats.Promotions != 0 {
		t.Fatal("write triggered promotion")
	}
}

func TestTagMissFetchesThroughLLC(t *testing.T) {
	h := newHarness(t, DAS, 0)
	geom := h.dev.Geometry()
	before := h.llc.accesses
	h.read(t, geom.Encode(geom.RowCoord(8)))
	h.settle()
	// At least the translation fetch and the table update went via LLC.
	if h.llc.accesses <= before {
		t.Fatal("tag miss did not consult the LLC")
	}
	if h.mgr.Stats.TableFetches == 0 {
		t.Fatal("table fetch not counted")
	}
	if h.mgr.TagCache().Lookups == 0 {
		t.Fatal("tag cache not consulted")
	}
}

func TestTableRegionIdentityMapped(t *testing.T) {
	h := newHarness(t, DAS, 0)
	// A meta access inside the reserved table region must not recurse
	// into translation and must be served slow.
	addr := h.mgr.TableBase()
	done := false
	h.mgr.Access(&mem.Request{Addr: addr, Meta: true, Core: -1, Done: func() { done = true }})
	for !done {
		if !h.eng.Step() {
			t.Fatal("meta access never completed")
		}
	}
	if h.dev.CollectStats().ActivatesFast != 0 {
		t.Fatal("table region used fast timing")
	}
}

func TestUsableBytesExcludesTable(t *testing.T) {
	h := newHarness(t, DAS, 0)
	geom := h.dev.Geometry()
	if h.mgr.UsableBytes()+TableReserveBytes(geom) != geom.Capacity() {
		t.Fatal("usable + reserve != capacity")
	}
}

func TestGroupMigrationSerialized(t *testing.T) {
	h := newHarness(t, DAS, 5000) // very slow migration
	geom := h.dev.Geometry()
	// Two slow rows of the same group: second promotion must be skipped
	// while the first migration is in flight.
	a := geom.Encode(geom.RowCoord(8))
	b := geom.Encode(geom.RowCoord(9))
	h.read(t, a)
	h.read(t, b) // completes while migration for row 8 still pending
	if h.mgr.Stats.Promotions > 1 {
		t.Fatal("concurrent promotions in one group")
	}
	h.settle()
}

func TestStaticAssignmentSteersClasses(t *testing.T) {
	eng := sim.NewEngine()
	dev, _ := dram.New(dram.Config{
		Geometry: dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 16, BlockSize: 64},
		Slow:     timing.DDR31600Slow(),
		Fast:     timing.DDR31600Fast(),
	})
	ctl, _ := mc.New(mc.DefaultConfig(), eng, dev, 1)
	mgr, err := NewManager(DefaultConfig(SAS), eng, ctl, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := NewRowProfile()
	prof.Record(5)
	prof.Record(5)
	prof.Record(6)
	mgr.SetStaticAssignment(BuildStaticAssignment(prof, dev.Geometry(), 8))
	geom := dev.Geometry()
	read := func(row uint64) {
		done := false
		mgr.Access(&mem.Request{Addr: geom.Encode(geom.RowCoord(row)), Core: 0, Done: func() { done = true }})
		for !done && eng.Step() {
		}
	}
	read(5)  // profiled hot -> fast
	read(40) // cold -> slow
	s := dev.CollectStats()
	if s.ActivatesFast != 1 || s.Activates != 2 {
		t.Fatalf("static steering wrong: %d fast of %d", s.ActivatesFast, s.Activates)
	}
}

func TestBuildStaticAssignmentQuota(t *testing.T) {
	geom := testGeom()
	prof := NewRowProfile()
	// Touch every row of bank 0 once.
	for r := uint64(0); r < uint64(geom.Rows); r++ {
		prof.Record(r)
	}
	a := BuildStaticAssignment(prof, geom, 8)
	if a.FastRows() != geom.Rows/8 {
		t.Fatalf("assigned %d rows, want per-bank quota %d", a.FastRows(), geom.Rows/8)
	}
}

func TestBuildStaticAssignmentPrefersHot(t *testing.T) {
	geom := testGeom()
	prof := NewRowProfile()
	for r := uint64(0); r < 64; r++ {
		prof.Record(r) // cold: 1 touch
	}
	for i := 0; i < 10; i++ {
		prof.Record(70) // hot
	}
	a := BuildStaticAssignment(prof, geom, 8)
	if !a.IsFast(70) {
		t.Fatal("hottest row not assigned")
	}
}

func TestDesignParsing(t *testing.T) {
	for _, d := range AllDesigns() {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Fatalf("parse roundtrip failed for %v", d)
		}
	}
	if _, err := ParseDesign("hbm"); err == nil {
		t.Fatal("unknown design accepted")
	}
	if !DAS.Dynamic() || !DASFM.Dynamic() || SAS.Dynamic() {
		t.Fatal("Dynamic() wrong")
	}
	if !SAS.Static() || !CHARM.Static() || DAS.Static() {
		t.Fatal("Static() wrong")
	}
}

func TestManagerConfigValidation(t *testing.T) {
	cfg := DefaultConfig(DAS)
	cfg.GroupSize = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero group size accepted")
	}
	cfg = DefaultConfig(DAS)
	cfg.FastDenom = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("denominator 1 accepted")
	}
	cfg = DefaultConfig(DAS)
	cfg.FilterThreshold = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("threshold 0 accepted")
	}
}
