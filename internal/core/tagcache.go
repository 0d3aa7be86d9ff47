package core

import (
	"fmt"

	"repro/internal/cache"
)

// tagEntryBytes is the modeled SRAM cost of one cached translation
// entry: the one-byte in-group mapping (Section 5.2's migration-group
// entries) plus roughly one byte of amortized tag/valid overhead.
const tagEntryBytes = 2

// TagCache is the on-controller translation cache of Section 5.2: a
// small set-associative SRAM holding per-row translation entries,
// primarily those of fast-level rows (entries are inserted on lookup
// fetches and refreshed on every promotion commit). A hit costs no extra
// latency because the lookup proceeds in parallel with the (already
// failed) LLC data lookup; a miss fetches the entry's table block
// through the LLC and, if absent there, from DRAM.
type TagCache struct {
	tags    cache.Tags // tags are global logical row ids
	setMask uint64

	Lookups uint64
	Hits    uint64
}

// NewTagCache builds a cache of capacityBytes with the given
// associativity over per-row entries.
func NewTagCache(capacityBytes, assoc int) (*TagCache, error) {
	tc := new(TagCache)
	if err := tc.Reshape(capacityBytes, assoc); err != nil {
		return nil, err
	}
	return tc, nil
}

// tagCacheShape returns the set count and ways NewTagCache builds for
// capacityBytes and assoc, or why it cannot build one.
func tagCacheShape(capacityBytes, assoc int) (nsets, ways int, err error) {
	if capacityBytes <= 0 || assoc <= 0 {
		return 0, 0, fmt.Errorf("core: tag cache capacity and associativity must be positive")
	}
	entries := capacityBytes / tagEntryBytes
	if entries < assoc {
		assoc = entries
	}
	if entries == 0 || entries%assoc != 0 {
		return 0, 0, fmt.Errorf("core: tag cache of %d B cannot form %d-way sets", capacityBytes, assoc)
	}
	nsets = entries / assoc
	// Round the set count down to a power of two so the index is a mask
	// (hardware does the same; a little capacity is lost to rounding).
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return nsets, assoc, nil
}

// Entries returns the modeled entry capacity.
func (tc *TagCache) Entries() int { return tc.tags.Len() }

// Lookup probes for row's entry and reports a hit, refreshing recency.
func (tc *TagCache) Lookup(row uint64) bool {
	tc.Lookups++
	i := tc.tags.Find(tc.index(row), row)
	if i < 0 {
		return false
	}
	tc.tags.Touch(i)
	tc.Hits++
	return true
}

// index spreads row ids across sets (rows are scattered, so low bits
// suffice after mixing).
func (tc *TagCache) index(row uint64) uint64 {
	row ^= row >> 17
	row *= 0x9E3779B97F4A7C15
	return (row >> 16) & tc.setMask
}

// Insert installs row's entry, refreshing it in place if already
// resident (so a row never occupies two ways) and otherwise evicting
// the LRU way. (Evicted entries need no writeback: the in-DRAM table is
// updated in place on every migration commit.)
func (tc *TagCache) Insert(row uint64) {
	set := tc.index(row)
	i := tc.tags.Find(set, row)
	if i < 0 {
		i = tc.tags.Victim(set)
	}
	tc.tags.Install(i, row)
}

// Invalidate drops row's entry if present (e.g. on a detected parity
// corruption) and reports whether one existed.
func (tc *TagCache) Invalidate(row uint64) bool {
	i := tc.tags.Find(tc.index(row), row)
	if i < 0 {
		return false
	}
	tc.tags.Invalidate(i)
	return true
}

// Contains probes for row without touching recency or the hit/lookup
// counters (diagnostics and invariant checks).
func (tc *TagCache) Contains(row uint64) bool {
	return tc.tags.Find(tc.index(row), row) >= 0
}

// VisitValid calls fn for every valid entry's row id (invariant
// checks). Iteration order is deterministic: set-major, way-minor.
func (tc *TagCache) VisitValid(fn func(row uint64)) { tc.tags.VisitValid(fn) }

// Reshape invalidates every entry and rewinds the recency clock and
// counters, leaving the cache indistinguishable from a fresh
// NewTagCache(capacityBytes, assoc). The tag array is resliced in place
// when it is large enough for the new shape.
func (tc *TagCache) Reshape(capacityBytes, assoc int) error {
	nsets, ways, err := tagCacheShape(capacityBytes, assoc)
	if err != nil {
		return err
	}
	tc.tags.Reshape(nsets, ways)
	tc.setMask = uint64(nsets - 1)
	tc.Lookups, tc.Hits = 0, 0
	return nil
}
