package core

import (
	"testing"
	"testing/quick"
)

func TestTagCacheHitAfterInsert(t *testing.T) {
	tc, err := NewTagCache(4<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Lookup(42) {
		t.Fatal("hit on empty cache")
	}
	tc.Insert(42)
	if !tc.Lookup(42) {
		t.Fatal("miss after insert")
	}
	if tc.Lookups != 2 || tc.Hits != 1 {
		t.Fatalf("counters: %d lookups %d hits", tc.Lookups, tc.Hits)
	}
}

func TestTagCacheInsertIdempotent(t *testing.T) {
	tc, _ := NewTagCache(1<<10, 4)
	tc.Insert(7)
	tc.Insert(7)
	// Re-inserting must not consume a second way: fill the rest of the
	// set and make sure 7 still hits.
	if !tc.Lookup(7) {
		t.Fatal("row lost after double insert")
	}
}

func TestTagCacheCapacityEviction(t *testing.T) {
	tc, _ := NewTagCache(256, 2) // 128 entries
	n := tc.Entries()
	for row := uint64(0); row < uint64(4*n); row++ {
		tc.Insert(row)
	}
	hits := 0
	for row := uint64(0); row < uint64(4*n); row++ {
		if tc.Lookup(row) {
			hits++
		}
	}
	if hits > n {
		t.Fatalf("%d hits exceed capacity %d", hits, n)
	}
	if hits == 0 {
		t.Fatal("everything evicted; expected the most recent entries to survive")
	}
}

func TestTagCacheLRUWithinSet(t *testing.T) {
	tc, _ := NewTagCache(4<<10, 8)
	// Find rows mapping to one set by brute force.
	set0 := tc.index(0)
	var rows []uint64
	for r := uint64(0); len(rows) < 9; r++ {
		if tc.index(r) == set0 {
			rows = append(rows, r)
		}
	}
	for _, r := range rows[:8] {
		tc.Insert(r)
	}
	tc.Lookup(rows[0]) // refresh the oldest
	tc.Insert(rows[8]) // evicts rows[1], not rows[0]
	if !tc.Lookup(rows[0]) {
		t.Fatal("recently-used entry evicted")
	}
	if tc.Lookup(rows[1]) {
		t.Fatal("LRU entry survived")
	}
}

func TestTagCacheValidation(t *testing.T) {
	if _, err := NewTagCache(0, 8); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewTagCache(1024, 0); err == nil {
		t.Fatal("zero associativity accepted")
	}
	// Tiny caches clamp associativity rather than failing.
	tc, err := NewTagCache(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Entries() == 0 {
		t.Fatal("tiny cache has no entries")
	}
}

func TestTagCacheNeverFalseHits(t *testing.T) {
	// Property: a row never inserted never hits.
	check := func(ins []uint16, probe uint16) bool {
		tc, _ := NewTagCache(1<<10, 4)
		inserted := make(map[uint64]bool)
		for _, r := range ins {
			tc.Insert(uint64(r))
			inserted[uint64(r)] = true
		}
		if !inserted[uint64(probe)] && tc.Lookup(uint64(probe)) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
