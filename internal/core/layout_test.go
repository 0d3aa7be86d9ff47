package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/sim"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 2, Banks: 8, Rows: 256, Columns: 16, BlockSize: 64}
}

func TestLayoutBasics(t *testing.T) {
	l, err := NewLayout(testGeom(), 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.GroupSize() != 32 || l.FastSlots() != 4 {
		t.Fatalf("group %d slots %d", l.GroupSize(), l.FastSlots())
	}
	if l.GroupsPerBank() != 8 {
		t.Fatalf("groups per bank %d, want 8", l.GroupsPerBank())
	}
	if l.TotalGroups() != 8*32 {
		t.Fatalf("total groups %d", l.TotalGroups())
	}
	if !l.SlotIsFast(3) || l.SlotIsFast(4) {
		t.Fatal("fast slot boundary wrong")
	}
}

func TestLayoutGroupRowRoundtrip(t *testing.T) {
	l, _ := NewLayout(testGeom(), 32, 8)
	check := func(raw uint32) bool {
		row := uint64(raw) % testGeom().TotalRows()
		g, slot := l.GroupOf(row)
		return l.RowOf(g, slot) == row
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutGroupsNeverSpanBanks(t *testing.T) {
	geom := testGeom()
	l, _ := NewLayout(geom, 32, 8)
	for g := uint64(0); g < l.TotalGroups(); g++ {
		first := geom.RowCoord(l.RowOf(g, 0))
		last := geom.RowCoord(l.RowOf(g, l.GroupSize()-1))
		if first.Bank != last.Bank || first.Rank != last.Rank || first.Channel != last.Channel {
			t.Fatalf("group %d spans banks: %+v vs %+v", g, first, last)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	g := testGeom()
	if _, err := NewLayout(g, 0, 8); err == nil {
		t.Error("zero group size accepted")
	}
	if _, err := NewLayout(g, 512, 8); err == nil {
		t.Error("group > 256 accepted (entries must fit one byte)")
	}
	if _, err := NewLayout(g, 24, 8); err == nil {
		t.Error("group not divisible by denominator accepted")
	}
	if _, err := NewLayout(g, 48, 8); err == nil {
		t.Error("rows not divisible by group accepted")
	}
	if _, err := NewLayout(g, 32, 1); err == nil {
		t.Error("denominator 1 accepted")
	}
}

func TestGroupSwapMaintainsBijection(t *testing.T) {
	// Property: any sequence of swaps leaves perm/inv mutually inverse
	// permutations.
	check := func(pairs []uint8) bool {
		g := newGroup(32, 4)
		for i := 0; i+1 < len(pairs); i += 2 {
			g.swap(int(pairs[i]%32), int(pairs[i+1]%32))
		}
		seen := make(map[uint8]bool)
		for logical, phys := range g.perm {
			if seen[phys] {
				return false
			}
			seen[phys] = true
			if int(g.inv[phys]) != logical {
				return false
			}
		}
		return len(seen) == 32
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSwapMovesRows(t *testing.T) {
	g := newGroup(32, 4)
	g.swap(10, 2) // promote logical 10 into logical 2's slot
	if g.perm[10] != 2 || g.perm[2] != 10 {
		t.Fatalf("swap wrong: perm[10]=%d perm[2]=%d", g.perm[10], g.perm[2])
	}
	if g.inv[2] != 10 || g.inv[10] != 2 {
		t.Fatal("inverse not updated")
	}
}

func TestTableReserveBytes(t *testing.T) {
	geom := testGeom()
	got := TableReserveBytes(geom)
	// One byte per row, rounded up to whole rows.
	rows := geom.TotalRows()
	rb := geom.RowBytes()
	want := (rows + rb - 1) / rb * rb
	if got != want {
		t.Fatalf("reserve %d, want %d", got, want)
	}
	if got%rb != 0 {
		t.Fatal("reserve not row-aligned")
	}
	if got < rows {
		t.Fatal("reserve smaller than one byte per row")
	}
}

func TestVictimPickerPolicies(t *testing.T) {
	g := newGroup(32, 4)
	// LRU: stamp slots with distinct times; slot 2 oldest.
	g.lastUse = []sim.Time{40, 30, 10, 20}
	lru := &victimPicker{policy: ReplLRU}
	if v := lru.pick(g, 4, nil); v != 2 {
		t.Fatalf("LRU picked %d, want 2", v)
	}
	// Sequential cycles 0,1,2,3,0.
	seq := &victimPicker{policy: ReplSequential}
	for i, want := range []int{0, 1, 2, 3, 0} {
		if v := seq.pick(g, 4, nil); v != want {
			t.Fatalf("sequential pick %d = %d, want %d", i, v, want)
		}
	}
	// Global counter cycles independent of group state.
	ctr := &victimPicker{policy: ReplGlobalCounter}
	a, b := ctr.pick(g, 4, nil), ctr.pick(g, 4, nil)
	if a == b {
		t.Fatalf("counter picks repeated: %d %d", a, b)
	}
	// Random stays in range.
	rnd := &victimPicker{policy: ReplRandom, rng: sim.NewRNG(1)}
	for i := 0; i < 100; i++ {
		if v := rnd.pick(g, 4, nil); v < 0 || v >= 4 {
			t.Fatalf("random out of range: %d", v)
		}
	}
}

func TestVictimPickerUsableMask(t *testing.T) {
	// Only slot 1 is usable: every policy must return it.
	onlyOne := func(p int) bool { return p == 1 }
	g := newGroup(32, 4)
	g.lastUse = []sim.Time{10, 40, 20, 30} // LRU would pick 0 unmasked
	for _, pol := range []Replacement{ReplLRU, ReplRandom, ReplSequential, ReplGlobalCounter} {
		v := &victimPicker{policy: pol, rng: sim.NewRNG(1)}
		for i := 0; i < 8; i++ {
			if got := v.pick(g, 4, onlyOne); got != 1 {
				t.Fatalf("%v picked masked slot %d", pol, got)
			}
		}
	}
	// A partial mask never returns an excluded slot.
	noWeak := func(p int) bool { return p != 2 }
	for _, pol := range []Replacement{ReplLRU, ReplRandom, ReplSequential, ReplGlobalCounter} {
		v := &victimPicker{policy: pol, rng: sim.NewRNG(7)}
		for i := 0; i < 100; i++ {
			if got := v.pick(g, 4, noWeak); got == 2 || got < 0 || got >= 4 {
				t.Fatalf("%v picked unusable slot %d", pol, got)
			}
		}
	}
}

func TestParseReplacement(t *testing.T) {
	for _, name := range []string{"lru", "random", "sequential", "counter"} {
		r, err := ParseReplacement(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.String() != name {
			t.Fatalf("roundtrip %s -> %s", name, r.String())
		}
	}
	if _, err := ParseReplacement("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// newGroup builds a standalone group of the given shape.
func newGroup(size, fastSlots int) *group {
	g := &group{perm: make([]uint8, size), inv: make([]uint8, size), lastUse: make([]sim.Time, fastSlots)}
	g.init(size, fastSlots)
	return g
}
