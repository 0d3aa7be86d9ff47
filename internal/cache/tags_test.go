package cache

import "testing"

// TestTagsVictimOrder pins the replacement rule both the cache levels
// and the DAS tag cache rely on: the first invalid way, else the first
// least recently used way.
func TestTagsVictimOrder(t *testing.T) {
	tg := NewTags(2, 3) // set 1 is slots 3..5
	if v := tg.Victim(1); v != 3 {
		t.Fatalf("empty set: victim %d, want 3", v)
	}
	for w, tag := range []uint64{10, 11, 12} {
		if _, evicted := tg.Install(3+w, tag); evicted {
			t.Fatalf("install into empty slot %d evicted", 3+w)
		}
	}
	tg.Touch(3) // 10 becomes MRU, so 11 is LRU
	if v := tg.Victim(1); v != 4 {
		t.Fatalf("full set: victim %d, want the LRU slot 4", v)
	}
	tg.Invalidate(5)
	if v := tg.Victim(1); v != 5 {
		t.Fatalf("victim %d, want the invalid slot 5 ahead of the LRU slot", v)
	}
	if i := tg.Find(1, 12); i != -1 {
		t.Fatalf("invalidated tag found at %d", i)
	}
	if old, evicted := tg.Install(4, 20); !evicted || old != 11 {
		t.Fatalf("Install over 11 returned (%d, %v)", old, evicted)
	}
	if i := tg.Find(1, 20); i != 4 {
		t.Fatalf("Find(20) = %d, want 4", i)
	}
	if i := tg.Find(0, 10); i != -1 {
		t.Fatalf("tag of set 1 found in set 0 at %d", i)
	}
	var valid []uint64
	tg.VisitValid(func(tag uint64) { valid = append(valid, tag) })
	if len(valid) != 2 || valid[0] != 10 || valid[1] != 20 {
		t.Fatalf("VisitValid = %v, want [10 20]", valid)
	}
	tg.Reset()
	if tg.Find(1, 10) != -1 || tg.Victim(1) != 3 || tg.Len() != 6 {
		t.Fatal("Reset left state behind")
	}
}
