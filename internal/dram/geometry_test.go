package dram

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestGeometryCapacity(t *testing.T) {
	g := Default8GB()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(); got != 8<<30 {
		t.Fatalf("capacity = %d, want 8 GiB", got)
	}
	if g.RowBytes() != 8192 {
		t.Fatalf("row bytes = %d, want 8192", g.RowBytes())
	}
	if g.TotalRows() != 1<<20 {
		t.Fatalf("total rows = %d, want 1M", g.TotalRows())
	}
	if g.TotalBanks() != 32 {
		t.Fatalf("total banks = %d, want 32", g.TotalBanks())
	}
}

func TestGeometryValidateRejectsNonPow2(t *testing.T) {
	g := Default8GB()
	g.Banks = 6
	if err := g.Validate(); err == nil {
		t.Fatal("non-power-of-two banks accepted")
	}
	g = Default8GB()
	g.Rows = 0
	if err := g.Validate(); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestGeometryDecodeEncodeRoundtrip(t *testing.T) {
	g := Default8GB()
	check := func(raw uint64) bool {
		addr := raw % g.Capacity() &^ uint64(g.BlockSize-1)
		c := g.Decode(addr)
		return g.Encode(c) == addr
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryDecodeInRange(t *testing.T) {
	g := Default8GB()
	check := func(raw uint64) bool {
		c := g.Decode(raw % g.Capacity())
		return c.Channel >= 0 && c.Channel < g.Channels &&
			c.Rank >= 0 && c.Rank < g.Ranks &&
			c.Bank >= 0 && c.Bank < g.Banks &&
			c.Row >= 0 && c.Row < g.Rows &&
			c.Column >= 0 && c.Column < g.Columns
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometrySequentialStaysInRow(t *testing.T) {
	// The mapping must keep one row's worth of consecutive addresses in
	// one (channel, rank, bank, row) for row-buffer locality.
	g := Default8GB()
	base := g.Decode(0)
	for off := uint64(0); off < g.RowBytes(); off += uint64(g.BlockSize) {
		c := g.Decode(off)
		if c.Channel != base.Channel || c.Bank != base.Bank ||
			c.Rank != base.Rank || c.Row != base.Row {
			t.Fatalf("offset %d left the row: %+v", off, c)
		}
	}
	// The next row-sized chunk must land elsewhere (channel interleave).
	c := g.Decode(g.RowBytes())
	if c.Channel == base.Channel && c.Bank == base.Bank && c.Rank == base.Rank && c.Row == base.Row {
		t.Fatal("adjacent row chunk mapped to the same row")
	}
}

func TestRowIDRoundtrip(t *testing.T) {
	g := Default8GB()
	check := func(raw uint64) bool {
		rowID := raw % g.TotalRows()
		c := g.RowCoord(rowID)
		return g.RowID(c) == rowID
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrRowIDMatchesDecode(t *testing.T) {
	scaled := Default8GB()
	scaled.Rows = 4096
	for _, tc := range []struct {
		name string
		g    Geometry
	}{
		{"default8GB", Default8GB()},
		{"scaled", scaled},
		{"1ch1rank", Geometry{Channels: 1, Ranks: 1, Banks: 8, Rows: 1024, Columns: 64, BlockSize: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < 10000; i++ {
				addr := r.Uint64()
				if i%2 == 0 {
					addr %= tc.g.Capacity() // in range, as the generators emit
				}
				if got, want := tc.g.AddrRowID(addr), tc.g.RowID(tc.g.Decode(addr)); got != want {
					t.Fatalf("AddrRowID(%#x) = %d, RowID(Decode) = %d", addr, got, want)
				}
			}
		})
	}
}

func TestBankIDDense(t *testing.T) {
	g := Default8GB()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.Ranks; rk++ {
			for bk := 0; bk < g.Banks; bk++ {
				id := g.BankID(Coord{Channel: ch, Rank: rk, Bank: bk})
				if id < 0 || id >= g.TotalBanks() || seen[id] {
					t.Fatalf("bank id %d invalid or duplicated", id)
				}
				seen[id] = true
			}
		}
	}
}
