package core

import (
	"slices"
	"testing"
)

// Tag-cache operations decoded from fuzz input, two bytes each: the
// first byte picks the operation, the second the row.
const (
	tcInsert = iota
	tcLookup
	tcInvalidate
	tcContains
)

// FuzzTagCache drives a TagCache of 1–4 sets and 1–4 ways with decoded
// Insert/Lookup/Invalidate/Contains operations and compares every result,
// and the Lookups/Hits counters, against a per-set list-based LRU oracle
// keyed by tc.index. The oracle never holds a row twice in a set, so a
// duplicate entry in the cache shows up as a stale hit after Invalidate.
func FuzzTagCache(f *testing.F) {
	// The first argument packs the shape as (ways-1)<<2 | (sets-1).
	// One set, two ways: Insert 1, Insert 2, Invalidate 1, Insert 2,
	// Invalidate 2, Contains 2. Re-inserting 2 must refresh its way, not
	// fill the invalid way in front of it, or Invalidate 2 leaves a copy.
	f.Add(byte(1<<2|0), []byte{
		tcInsert, 1, tcInsert, 2, tcInvalidate, 1, tcInsert, 2, tcInvalidate, 2, tcContains, 2,
	})
	f.Add(byte(3<<2|1), []byte{tcInsert, 0, tcLookup, 0, tcInsert, 8, tcInvalidate, 0, tcLookup, 8})
	f.Add(byte(1<<2|0), []byte{tcInsert, 1, tcInsert, 2, tcInsert, 3, tcLookup, 1, tcInsert, 4, tcContains, 2})
	f.Fuzz(func(t *testing.T, shape byte, ops []byte) {
		sets, ways := 1+int(shape&3), 1+int(shape>>2&3)
		tc, err := NewTagCache(sets*ways*tagEntryBytes, ways)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64][]uint64{} // set -> rows, least recently used first
		var lookups, hits uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, row := ops[i]&3, uint64(ops[i+1]&15)
			set := tc.index(row)
			lst := oracle[set]
			at := slices.Index(lst, row)
			var got, want bool
			switch op {
			case tcInsert:
				if at >= 0 {
					lst = slices.Delete(lst, at, at+1)
				} else if len(lst) == ways {
					lst = lst[1:]
				}
				oracle[set] = append(lst, row)
				tc.Insert(row)
				continue
			case tcLookup:
				lookups++
				if want = at >= 0; want {
					hits++
					oracle[set] = append(slices.Delete(lst, at, at+1), row)
				}
				got = tc.Lookup(row)
			case tcInvalidate:
				if want = at >= 0; want {
					oracle[set] = slices.Delete(lst, at, at+1)
				}
				got = tc.Invalidate(row)
			case tcContains:
				want, got = at >= 0, tc.Contains(row)
			}
			if got != want {
				t.Fatalf("op %d (%d on row %d): got %v, want %v", i/2, op, row, got, want)
			}
		}
		if tc.Lookups != lookups || tc.Hits != hits {
			t.Fatalf("counters: %d lookups %d hits, want %d and %d", tc.Lookups, tc.Hits, lookups, hits)
		}
		valid := 0
		tc.VisitValid(func(uint64) { valid++ })
		resident := 0
		for _, lst := range oracle {
			resident += len(lst)
		}
		if valid != resident {
			t.Fatalf("%d valid entries, oracle holds %d", valid, resident)
		}
	})
}
