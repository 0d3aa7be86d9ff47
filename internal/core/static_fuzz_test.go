package core

import (
	"sort"
	"testing"

	"repro/internal/dram"
)

// referenceStaticAssignment is the map-based builder the bitset
// replaced: per-bank row lists in a map, each sorted by count
// descending then row ascending, the top rows-per-bank/fastDenom of
// each kept in a set.
func referenceStaticAssignment(p *RowProfile, geom dram.Geometry, fastDenom int) map[uint64]struct{} {
	perBankQuota := geom.Rows / fastDenom
	byBank := make(map[int][]rowCount)
	for row, count := range p.counts {
		if count == 0 {
			continue
		}
		bank := row / geom.Rows
		byBank[bank] = append(byBank[bank], rowCount{uint64(row), count})
	}
	fast := make(map[uint64]struct{})
	for _, rows := range byBank {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].count != rows[j].count {
				return rows[i].count > rows[j].count
			}
			return rows[i].row < rows[j].row
		})
		n := min(perBankQuota, len(rows))
		for _, rc := range rows[:n] {
			fast[rc.row] = struct{}{}
		}
	}
	return fast
}

// FuzzStaticAssignment builds a static assignment from a random profile
// over four banks of 4–11 rows at fast denominators 1–8 and checks
// FastRows and IsFast against the reference builder for every row id,
// including ids past the profile's length. Each touch byte records one
// access to row byte%48, so profiles carry ties, empty banks, rows
// beyond the geometry, and banks with fewer touched rows than the
// quota; an empty touch list is an empty profile.
func FuzzStaticAssignment(f *testing.F) {
	// The first argument packs the shape: bits 0–2 rows per bank - 4,
	// bits 3–5 fastDenom - 1, bit 7 a geometry-sized profile.
	f.Add(byte(4|1<<3), []byte{})
	f.Add(byte(0|7<<3|1<<7), []byte{})
	f.Add(byte(4|1<<3), []byte{0, 1, 1, 2, 2, 3, 3, 8, 9, 9, 9})
	f.Add(byte(0|0<<3), []byte{5, 5, 5, 6, 6, 6, 47, 47, 20})
	f.Add(byte(3|2<<3|1<<7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 40, 41, 41})
	f.Fuzz(func(t *testing.T, shape byte, touches []byte) {
		geom := dram.Geometry{Channels: 1, Ranks: 1, Banks: 4, Rows: 4 + int(shape&7), Columns: 16, BlockSize: 64}
		fastDenom := 1 + int(shape>>3&7)
		prof := NewRowProfile()
		if shape&(1<<7) != 0 {
			prof = NewGeometryProfile(geom)
		}
		for _, b := range touches {
			prof.Record(uint64(b % 48))
		}
		want := referenceStaticAssignment(prof, geom, fastDenom)
		got := BuildStaticAssignment(prof, geom, fastDenom)
		if got.FastRows() != len(want) {
			t.Fatalf("FastRows = %d, reference assigns %d", got.FastRows(), len(want))
		}
		for row := uint64(0); row < uint64(len(prof.counts))+130; row++ {
			if _, ok := want[row]; got.IsFast(row) != ok {
				t.Fatalf("IsFast(%d) = %v, reference %v (count %d)", row, !ok, ok, prof.Count(row))
			}
		}
	})
}
