package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testProfile() Profile {
	return Profile{
		Name: "test", MemFraction: 0.3, WriteFraction: 0.25,
		FootprintBytes: 8 << 20,
		LocalWeight:    0.5, StreamWeight: 0.2, StrideWeight: 0.1,
		HotWeight: 0.15, ChaseWeight: 0.05,
		HotFraction: 0.125, HotSkew: 1,
		PhaseInstr: 100000, PhaseShiftFraction: 0.125,
	}
}

func testRegion() Region { return Region{Base: 1 << 30, Bytes: 64 << 20} }

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewSynthetic(testProfile(), testRegion(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSynthetic(testProfile(), testRegion(), 7)
	var ia, ib Instr
	for i := 0; i < 100000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a, _ := NewSynthetic(testProfile(), testRegion(), 1)
	b, _ := NewSynthetic(testProfile(), testRegion(), 2)
	var ia, ib Instr
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia.Mem && ib.Mem && ia.Addr == ib.Addr {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical addresses", same)
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	region := testRegion()
	gen, err := NewSynthetic(testProfile(), region, 3)
	if err != nil {
		t.Fatal(err)
	}
	var in Instr
	for i := 0; i < 200000; i++ {
		gen.Next(&in)
		if in.Mem && !region.Contains(in.Addr) {
			t.Fatalf("address %#x outside region [%#x, %#x)", in.Addr,
				region.Base, region.Base+region.Bytes)
		}
	}
}

func TestMemFractionApproximate(t *testing.T) {
	gen, _ := NewSynthetic(testProfile(), testRegion(), 5)
	var in Instr
	memOps, writes := 0, 0
	const n = 300000
	for i := 0; i < n; i++ {
		gen.Next(&in)
		if in.Mem {
			memOps++
			if in.Write {
				writes++
			}
		}
	}
	memFrac := float64(memOps) / n
	if memFrac < 0.28 || memFrac > 0.32 {
		t.Fatalf("mem fraction %.3f, want ~0.30", memFrac)
	}
	wFrac := float64(writes) / float64(memOps)
	if wFrac < 0.22 || wFrac > 0.28 {
		t.Fatalf("write fraction %.3f, want ~0.25", wFrac)
	}
}

func TestDependentOnlyOnChaseLoads(t *testing.T) {
	p := testProfile()
	p.ChaseWeight = 0
	gen, _ := NewSynthetic(p, testRegion(), 5)
	var in Instr
	for i := 0; i < 100000; i++ {
		gen.Next(&in)
		if in.Dependent {
			t.Fatal("dependent instruction without chase component")
		}
	}
}

func TestPhaseDriftMovesHotRegion(t *testing.T) {
	p := testProfile()
	p.NoScatter = true
	p.LocalWeight, p.StreamWeight, p.StrideWeight, p.ChaseWeight = 0, 0, 0, 0
	p.HotWeight = 1
	p.MemFraction = 0.99
	gen, _ := NewSynthetic(p, testRegion(), 5)
	sample := func(n int) (lo, hi uint64) {
		var in Instr
		lo = ^uint64(0)
		for i := 0; i < n; i++ {
			gen.Next(&in)
			if !in.Mem {
				continue
			}
			if in.Addr < lo {
				lo = in.Addr
			}
			if in.Addr > hi {
				hi = in.Addr
			}
		}
		return
	}
	lo1, hi1 := sample(int(p.PhaseInstr) / 2)
	// skip to the next phase
	var in Instr
	for i := uint64(0); i < p.PhaseInstr; i++ {
		gen.Next(&in)
	}
	lo2, hi2 := sample(int(p.PhaseInstr) / 2)
	if lo2 < hi1 && hi2 > lo1 && lo1 == lo2 {
		t.Fatalf("hot region did not move: [%#x,%#x] then [%#x,%#x]", lo1, hi1, lo2, hi2)
	}
	if lo2 == lo1 {
		t.Fatal("hot base unchanged across a phase boundary")
	}
}

func TestPhaseOffsetShiftsSchedule(t *testing.T) {
	p := testProfile()
	p.NoScatter = true
	p.LocalWeight, p.StreamWeight, p.StrideWeight, p.ChaseWeight = 0, 0, 0, 0
	p.HotWeight = 1
	base, _ := NewSynthetic(p, testRegion(), 5)
	p.PhaseOffsetInstr = p.PhaseInstr - 1
	off, _ := NewSynthetic(p, testRegion(), 5)
	// The offset generator crosses a boundary after 1 instruction, the
	// base one only after PhaseInstr; their address streams must differ
	// within the first phase length.
	var ia, ib Instr
	differ := false
	for i := uint64(0); i < p.PhaseInstr/2; i++ {
		base.Next(&ia)
		off.Next(&ib)
		if ia.Mem && ib.Mem && ia.Addr != ib.Addr {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("phase offset had no effect")
	}
}

func TestScatterIsInjective(t *testing.T) {
	p := testProfile()
	gen, _ := NewSynthetic(p, testRegion(), 9)
	s := gen.(*synth)
	if s.rowPerm == nil {
		t.Fatal("scatter disabled by default")
	}
	seen := make(map[uint32]bool)
	for _, v := range s.rowPerm {
		if seen[v] {
			t.Fatalf("scatter permutation repeats row %d", v)
		}
		seen[v] = true
		if uint64(v) >= testRegion().Bytes/scatterRowBytes {
			t.Fatalf("scatter target %d outside region", v)
		}
	}
}

// TestScatterScratchMatchesFreshPermutation builds generators back to
// back over growing and shrinking regions, so the recycled shuffle
// buffer is reused both larger and smaller than the region and carries
// the previous shuffle's entries; every rowPerm must equal one built
// over a freshly allocated identity permutation.
func TestScatterScratchMatchesFreshPermutation(t *testing.T) {
	p := testProfile()
	for i, mb := range []uint64{64, 16, 128, 16, 64} {
		region := Region{Base: 1 << 30, Bytes: mb << 20}
		seed := uint64(3 + i)
		gen, err := NewSynthetic(p, region, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := gen.(*synth).rowPerm
		want := referenceScatter(p, region, seed)
		if !slices.Equal(got, want) {
			t.Fatalf("region %d MB: rowPerm differs from a fresh permutation", mb)
		}
	}
}

// referenceScatter is NewSynthetic's scatter over a fresh identity
// permutation of the whole region.
func referenceScatter(p Profile, region Region, seed uint64) []uint32 {
	spanRows := region.Bytes / scatterRowBytes
	fpRows := (p.FootprintBytes + scatterRowBytes - 1) / scatterRowBytes
	perm := make([]uint32, spanRows)
	for i := range perm {
		perm[i] = uint32(i)
	}
	shuffle := sim.NewRNG(seed ^ 0xC0FFEE ^ hashName(p.Name))
	for i := uint64(0); i < fpRows && i < spanRows-1; i++ {
		j := i + uint64(shuffle.Intn(int(spanRows-i)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:fpRows]
}

func TestNoScatterIdentity(t *testing.T) {
	p := testProfile()
	p.NoScatter = true
	p.LocalWeight, p.StrideWeight, p.HotWeight, p.ChaseWeight = 0, 0, 0, 0
	p.StreamWeight = 1
	p.StreamStep = 8
	p.MemFraction = 0.99
	gen, _ := NewSynthetic(p, testRegion(), 9)
	var in Instr
	var last uint64
	for i := 0; i < 1000; i++ {
		gen.Next(&in)
		if !in.Mem {
			continue
		}
		if last != 0 && in.Addr != last+p.StreamStep {
			t.Fatalf("stream not sequential without scatter: %#x then %#x", last, in.Addr)
		}
		last = in.Addr
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := func(mutate func(*Profile)) {
		t.Helper()
		p := testProfile()
		mutate(&p)
		if _, err := NewSynthetic(p, testRegion(), 1); err == nil {
			t.Error("invalid profile accepted")
		}
	}
	bad(func(p *Profile) { p.Name = "" })
	bad(func(p *Profile) { p.MemFraction = 0 })
	bad(func(p *Profile) { p.MemFraction = 1.5 })
	bad(func(p *Profile) { p.WriteFraction = -0.1 })
	bad(func(p *Profile) { p.FootprintBytes = 1000 })
	bad(func(p *Profile) {
		p.LocalWeight, p.StreamWeight, p.StrideWeight, p.HotWeight, p.ChaseWeight = 0, 0, 0, 0, 0
	})
	bad(func(p *Profile) { p.HotFraction = 0 })
	bad(func(p *Profile) { p.FootprintBytes = 128 << 20 }) // exceeds region
}

func TestAddressAlignmentProperty(t *testing.T) {
	gen, _ := NewSynthetic(testProfile(), testRegion(), 11)
	check := func(steps uint8) bool {
		var in Instr
		for i := 0; i < int(steps)+1; i++ {
			gen.Next(&in)
			if in.Mem && in.Dependent && in.Addr%8 != 0 {
				return false // pointer loads must be 8-byte aligned
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
