// Package dram models a DDR3-class DRAM subsystem at command/cycle level:
// channels, ranks, banks, per-bank row state machines, inter-command
// timing constraints, refresh, and the asymmetric fast/slow subarray
// timing the paper proposes. Migration operations (DAS-DRAM) occupy a
// bank for their configured latency.
package dram

import (
	"fmt"
	"math/bits"
)

// Geometry describes the physical organization of the memory system.
type Geometry struct {
	Channels  int // independent channels
	Ranks     int // ranks per channel
	Banks     int // banks per rank
	Rows      int // rows per bank
	Columns   int // cache blocks per row
	BlockSize int // bytes per cache block (memory bus burst)
}

// Default8GB returns the Table 1 organization: two 4 GB DIMMs on two
// channels, 2 ranks per channel, 8 banks per rank, 8 KB rows.
func Default8GB() Geometry {
	return Geometry{
		Channels:  2,
		Ranks:     2,
		Banks:     8,
		Rows:      32768,
		Columns:   128,
		BlockSize: 64,
	}
}

// Validate checks that all dimensions are positive powers of two (the
// address codec requires it).
func (g Geometry) Validate() error {
	type dim struct {
		name string
		v    int
	}
	for _, d := range []dim{
		{"channels", g.Channels}, {"ranks", g.Ranks}, {"banks", g.Banks},
		{"rows", g.Rows}, {"columns", g.Columns}, {"block size", g.BlockSize},
	} {
		if d.v <= 0 || d.v&(d.v-1) != 0 {
			return fmt.Errorf("dram: %s must be a positive power of two, got %d", d.name, d.v)
		}
	}
	return nil
}

// Capacity returns total bytes across all channels.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.Banks) *
		uint64(g.Rows) * uint64(g.Columns) * uint64(g.BlockSize)
}

// RowBytes returns the size of one row in bytes.
func (g Geometry) RowBytes() uint64 { return uint64(g.Columns) * uint64(g.BlockSize) }

// TotalRows returns the number of rows across the whole system.
func (g Geometry) TotalRows() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.Banks) * uint64(g.Rows)
}

// TotalBanks returns the number of banks across the whole system.
func (g Geometry) TotalBanks() int { return g.Channels * g.Ranks * g.Banks }

// Coord identifies one cache block within the memory system.
type Coord struct {
	Channel, Rank, Bank, Row, Column int
}

// log2 of a power of two. Decode sits on the per-access hot path (five
// calls per address), so this must compile to a single bit-scan rather
// than a shift loop.
func log2(v int) uint {
	if v <= 1 {
		return 0
	}
	return uint(bits.Len(uint(v)) - 1)
}

// Decode maps a physical byte address to its coordinate. The bit layout,
// from least significant, is offset : column : channel : bank : rank :
// row — channel bits below bank/rank so consecutive rows of blocks
// stripe across channels, while row bits on top preserves row-buffer
// locality for sequential streams (the usual open-page mapping).
func (g Geometry) Decode(addr uint64) Coord {
	a := addr >> log2(g.BlockSize)
	c := Coord{}
	c.Column = int(a & uint64(g.Columns-1))
	a >>= log2(g.Columns)
	c.Channel = int(a & uint64(g.Channels-1))
	a >>= log2(g.Channels)
	c.Bank = int(a & uint64(g.Banks-1))
	a >>= log2(g.Banks)
	c.Rank = int(a & uint64(g.Ranks-1))
	a >>= log2(g.Ranks)
	c.Row = int(a & uint64(g.Rows-1))
	return c
}

// Encode is the inverse of Decode (with zero block offset).
func (g Geometry) Encode(c Coord) uint64 {
	a := uint64(c.Row)
	a = a<<log2(g.Ranks) | uint64(c.Rank)
	a = a<<log2(g.Banks) | uint64(c.Bank)
	a = a<<log2(g.Channels) | uint64(c.Channel)
	a = a<<log2(g.Columns) | uint64(c.Column)
	return a << log2(g.BlockSize)
}

// BankID flattens (channel, rank, bank) into a dense index.
func (g Geometry) BankID(c Coord) int {
	return (c.Channel*g.Ranks+c.Rank)*g.Banks + c.Bank
}

// RowID flattens (channel, rank, bank, row) into a dense global row index.
func (g Geometry) RowID(c Coord) uint64 {
	return uint64(g.BankID(c))*uint64(g.Rows) + uint64(c.Row)
}

// AddrRowID maps a physical byte address straight to its global row
// index: the same bits as RowID(Decode(addr)), without building a
// Coord. With every dimension a power of two, the row index is the
// address's channel, rank, bank and row fields repacked in that order.
func (g Geometry) AddrRowID(addr uint64) uint64 {
	lc, lk, lb := log2(g.Channels), log2(g.Ranks), log2(g.Banks)
	a := addr >> (log2(g.BlockSize) + log2(g.Columns))
	ch := a & uint64(g.Channels-1)
	a >>= lc
	bank := a & uint64(g.Banks-1)
	a >>= lb
	rank := a & uint64(g.Ranks-1)
	row := a >> lk & uint64(g.Rows-1)
	return ((ch<<lk|rank)<<lb|bank)<<log2(g.Rows) | row
}

// RowCoord reconstructs the coordinate of a global row index (column 0).
func (g Geometry) RowCoord(rowID uint64) Coord {
	row := int(rowID % uint64(g.Rows))
	b := int(rowID / uint64(g.Rows))
	bank := b % g.Banks
	b /= g.Banks
	rank := b % g.Ranks
	ch := b / g.Ranks
	return Coord{Channel: ch, Rank: rank, Bank: bank, Row: row}
}
