package core

import (
	"cmp"
	"slices"

	"repro/internal/dram"
)

// RowProfile records per-row demand access counts, collected during a
// baseline (Standard) run. The static designs (SAS-DRAM, CHARM) consume
// it to pre-assign the hottest rows to the fast level, mirroring the
// paper's offline profiling of each workload.
//
// Global row ids are dense (Geometry.RowID), so the counts live in a
// flat slice: the profiling pass records tens of millions of touches,
// and a map's hash-and-probe per touch dominated its cost.
type RowProfile struct {
	counts   []uint64 // indexed by global row id
	distinct int
}

// NewRowProfile returns an empty profile that grows on demand.
func NewRowProfile() *RowProfile {
	return &RowProfile{}
}

// NewGeometryProfile returns an empty profile sized once to every row
// of geom, so recording any of its rows never reallocates.
func NewGeometryProfile(geom dram.Geometry) *RowProfile {
	return &RowProfile{counts: make([]uint64, geom.TotalRows())}
}

// Record adds one access to a global row id.
func (p *RowProfile) Record(rowID uint64) {
	if rowID >= uint64(len(p.counts)) {
		grown := make([]uint64, rowID+rowID/2+1)
		copy(grown, p.counts)
		p.counts = grown
	}
	if p.counts[rowID] == 0 {
		p.distinct++
	}
	p.counts[rowID]++
}

// Rows returns the number of distinct rows touched.
func (p *RowProfile) Rows() int { return p.distinct }

// Count returns the recorded accesses of a row.
func (p *RowProfile) Count(rowID uint64) uint64 {
	if rowID >= uint64(len(p.counts)) {
		return 0
	}
	return p.counts[rowID]
}

// StaticAssignment marks which rows a static design pre-assigned to the
// fast level: one bit per global row id, so the lookup on every DRAM
// request of a static design is a word load and a mask.
type StaticAssignment struct {
	bits []uint64 // bit r%64 of word r/64 set: row r is fast
	n    int
}

// IsFast reports whether a global row id was assigned to the fast level.
func (a *StaticAssignment) IsFast(rowID uint64) bool {
	if a == nil {
		return false
	}
	w := rowID / 64
	return w < uint64(len(a.bits)) && a.bits[w]&(1<<(rowID%64)) != 0
}

// FastRows returns the number of assigned rows.
func (a *StaticAssignment) FastRows() int {
	if a == nil {
		return 0
	}
	return a.n
}

// rowCount is one touched row of a bank, ranked by BuildStaticAssignment.
type rowCount struct {
	row   uint64
	count uint64
}

// BuildStaticAssignment selects, within every bank, the hottest
// rows-per-bank/fastDenom rows of the profile. The per-bank constraint
// reflects that fast subarrays are distributed across banks: a bank's
// fast capacity cannot host another bank's rows. Rows rank by count,
// descending, with the lower row id first among equals.
func BuildStaticAssignment(p *RowProfile, geom dram.Geometry, fastDenom int) *StaticAssignment {
	quota := geom.Rows / fastDenom
	a := &StaticAssignment{bits: make([]uint64, (len(p.counts)+63)/64)}
	var rows []rowCount // one bank's touched rows; reused across banks
	for lo := 0; lo < len(p.counts); lo += geom.Rows {
		rows = rows[:0]
		for i, count := range p.counts[lo:min(lo+geom.Rows, len(p.counts))] {
			if count != 0 {
				rows = append(rows, rowCount{uint64(lo + i), count})
			}
		}
		if len(rows) > quota {
			slices.SortFunc(rows, func(x, y rowCount) int {
				if x.count != y.count {
					return cmp.Compare(y.count, x.count)
				}
				return cmp.Compare(x.row, y.row)
			})
			rows = rows[:quota]
		}
		for _, rc := range rows {
			a.bits[rc.row/64] |= 1 << (rc.row % 64)
		}
		a.n += len(rows)
	}
	return a
}
