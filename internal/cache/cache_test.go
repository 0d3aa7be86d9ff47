package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// backend records requests and completes reads after a fixed delay.
type backend struct {
	eng      *sim.Engine
	delay    sim.Time
	reads    []uint64
	writes   []uint64
	metaSeen int
}

func (b *backend) Access(req *mem.Request) {
	if req.Meta {
		b.metaSeen++
	}
	if req.Write {
		b.writes = append(b.writes, req.Addr)
		req.Complete()
		return
	}
	b.reads = append(b.reads, req.Addr)
	b.eng.Schedule(b.delay, req.Complete)
}

func newTestCache(t *testing.T, sizeKB, assoc, mshrs int) (*Cache, *backend, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	be := &backend{eng: eng, delay: 100}
	c, err := New(Config{
		Name: "test", SizeBytes: sizeKB << 10, Assoc: assoc,
		BlockSize: 64, Latency: 10, MSHRs: mshrs,
	}, eng, be, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c, be, eng
}

// access performs a blocking access and reports whether it completed.
func access(c *Cache, eng *sim.Engine, addr uint64, write bool, core int) bool {
	done := false
	c.Access(&mem.Request{Addr: addr, Write: write, Core: core, Done: func() { done = true }})
	eng.Run()
	return done
}

func TestMissThenHit(t *testing.T) {
	c, be, eng := newTestCache(t, 4, 2, 4)
	if !access(c, eng, 0x1000, false, 0) {
		t.Fatal("first access never completed")
	}
	if len(be.reads) != 1 {
		t.Fatalf("backend saw %d reads, want 1 (fill)", len(be.reads))
	}
	if !access(c, eng, 0x1000, false, 0) {
		t.Fatal("second access never completed")
	}
	if len(be.reads) != 1 {
		t.Fatal("hit went to backend")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestSameBlockDifferentWordsHit(t *testing.T) {
	c, be, eng := newTestCache(t, 4, 2, 4)
	access(c, eng, 0x1000, false, 0)
	access(c, eng, 0x1038, false, 0) // same 64B block
	if len(be.reads) != 1 {
		t.Fatal("block-local access missed")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	c, be, eng := newTestCache(t, 4, 2, 4)
	done := 0
	for i := 0; i < 3; i++ {
		c.Access(&mem.Request{Addr: 0x2000 + uint64(i*8), Core: 0, Done: func() { done++ }})
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("%d of 3 coalesced accesses completed", done)
	}
	if len(be.reads) != 1 {
		t.Fatalf("backend saw %d fills for one block, want 1", len(be.reads))
	}
	if c.Stats.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", c.Stats.Coalesced)
	}
}

func TestMSHRLimitQueues(t *testing.T) {
	c, be, eng := newTestCache(t, 64, 4, 2)
	done := 0
	for i := 0; i < 5; i++ {
		c.Access(&mem.Request{Addr: uint64(i) << 12, Core: 0, Done: func() { done++ }})
	}
	eng.Run()
	if done != 5 {
		t.Fatalf("%d of 5 completed with MSHR pressure", done)
	}
	if len(be.reads) != 5 {
		t.Fatalf("backend saw %d fills, want 5", len(be.reads))
	}
}

func TestMetaBypassesMSHRLimit(t *testing.T) {
	c, _, eng := newTestCache(t, 64, 4, 1)
	// Occupy the only MSHR with a demand miss, then require a meta miss
	// to proceed anyway (the deadlock-avoidance path).
	demandDone, metaDone := false, false
	c.Access(&mem.Request{Addr: 0x10000, Core: 0, Done: func() { demandDone = true }})
	c.Access(&mem.Request{Addr: 0x20000, Core: -1, Meta: true, Done: func() { metaDone = true }})
	eng.Run()
	if !demandDone || !metaDone {
		t.Fatalf("demand=%v meta=%v", demandDone, metaDone)
	}
	if c.OutstandingMisses() != 0 {
		t.Fatal("MSHRs leaked")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// 2 sets x 1 way x 64B = direct-mapped 128B cache: easy conflicts.
	eng := sim.NewEngine()
	be := &backend{eng: eng, delay: 10}
	c, err := New(Config{Name: "tiny", SizeBytes: 128, Assoc: 1, BlockSize: 64, Latency: 1, MSHRs: 4}, eng, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	access(c, eng, 0x000, true, 0)  // dirty fill of set 0
	access(c, eng, 0x080, false, 0) // conflicts with 0x000 (same set)
	if len(be.writes) != 1 || be.writes[0] != 0x000 {
		t.Fatalf("expected writeback of 0x000, got %v", be.writes)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	eng := sim.NewEngine()
	be := &backend{eng: eng, delay: 10}
	c, _ := New(Config{Name: "tiny", SizeBytes: 128, Assoc: 1, BlockSize: 64, Latency: 1, MSHRs: 4}, eng, be, 0)
	access(c, eng, 0x000, false, 0)
	access(c, eng, 0x080, false, 0)
	if len(be.writes) != 0 {
		t.Fatal("clean eviction wrote back")
	}
}

func TestWritebackMissForwardsWithoutAllocating(t *testing.T) {
	c, be, eng := newTestCache(t, 4, 2, 4)
	c.Access(&mem.Request{Addr: 0x5000, Write: true, Writeback: true, Core: -1})
	eng.Run()
	if len(be.writes) != 1 {
		t.Fatal("writeback miss not forwarded")
	}
	if c.Contains(0x5000) {
		t.Fatal("writeback miss allocated a line")
	}
	if c.Stats.WBForward != 1 {
		t.Fatalf("WBForward = %d", c.Stats.WBForward)
	}
}

func TestWritebackHitMarksDirty(t *testing.T) {
	eng := sim.NewEngine()
	be := &backend{eng: eng, delay: 10}
	c, _ := New(Config{Name: "tiny", SizeBytes: 128, Assoc: 1, BlockSize: 64, Latency: 1, MSHRs: 4}, eng, be, 0)
	access(c, eng, 0x000, false, 0) // clean resident
	c.Access(&mem.Request{Addr: 0x000, Write: true, Writeback: true, Core: -1})
	eng.Run()
	access(c, eng, 0x080, false, 0) // evict it
	if len(be.writes) != 1 {
		t.Fatal("writeback-hit did not dirty the line")
	}
}

func TestLRUReplacement(t *testing.T) {
	eng := sim.NewEngine()
	be := &backend{eng: eng, delay: 10}
	// one set, 2 ways
	c, _ := New(Config{Name: "lru", SizeBytes: 128, Assoc: 2, BlockSize: 64, Latency: 1, MSHRs: 4}, eng, be, 0)
	a, b2, c3 := uint64(0x000), uint64(0x080), uint64(0x100)
	access(c, eng, a, false, 0)
	access(c, eng, b2, false, 0)
	access(c, eng, a, false, 0)  // refresh A
	access(c, eng, c3, false, 0) // must evict B
	if !c.Contains(a) || c.Contains(b2) || !c.Contains(c3) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestPerCoreMissCounters(t *testing.T) {
	c, _, eng := newTestCache(t, 4, 2, 4)
	access(c, eng, 0x1000, false, 0)
	access(c, eng, 0x2000, false, 1)
	access(c, eng, 0x3000, false, 1)
	if c.Stats.PerCoreMisses[0] != 1 || c.Stats.PerCoreMisses[1] != 2 {
		t.Fatalf("per-core misses: %v", c.Stats.PerCoreMisses)
	}
}

func TestLatencyCharged(t *testing.T) {
	c, _, eng := newTestCache(t, 4, 2, 4)
	access(c, eng, 0x1000, false, 0) // fill
	start := eng.Now()
	var doneAt sim.Time
	c.Access(&mem.Request{Addr: 0x1000, Core: 0, Done: func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt-start != 10 {
		t.Fatalf("hit latency = %d, want 10", doneAt-start)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	be := &backend{eng: eng}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 1, BlockSize: 64, MSHRs: 1},
		{Name: "b", SizeBytes: 128, Assoc: 1, BlockSize: 48, MSHRs: 1},
		{Name: "c", SizeBytes: 192, Assoc: 2, BlockSize: 64, MSHRs: 1}, // 3 lines not divisible
		{Name: "d", SizeBytes: 384, Assoc: 2, BlockSize: 64, MSHRs: 1}, // 3 sets not pow2
		{Name: "e", SizeBytes: 128, Assoc: 1, BlockSize: 64, MSHRs: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, eng, be, 0); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
	if _, err := New(Config{Name: "n", SizeBytes: 128, Assoc: 1, BlockSize: 64, MSHRs: 1}, eng, nil, 0); err == nil {
		t.Error("nil lower level accepted")
	}
}
