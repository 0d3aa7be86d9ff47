package cache

// Tags is a set-associative tag array with LRU replacement, shared by
// every cache level and the DAS translation cache. Tags and recency
// stamps are flat slices indexed by slot = set*ways + way. Stamp 0
// means invalid; installs and touches take the next tick of one clock.
// Callers keep per-slot payload (a cache's dirty bits) by slot too.
type Tags struct {
	tag   []uint64
	stamp []uint64
	ways  int
	clock uint64
}

// NewTags returns an empty array of sets x ways slots.
func NewTags(sets, ways int) Tags {
	return Tags{tag: make([]uint64, sets*ways), stamp: make([]uint64, sets*ways), ways: ways}
}

// Len returns the slot count (sets x ways).
func (t *Tags) Len() int { return len(t.tag) }

// Find returns the slot holding tag in set, or -1 if it is not resident.
func (t *Tags) Find(set, tag uint64) int {
	base := int(set) * t.ways
	for w, x := range t.tag[base : base+t.ways] {
		if x == tag && t.stamp[base+w] != 0 {
			return base + w
		}
	}
	return -1
}

// Touch makes slot the most recently used.
func (t *Tags) Touch(slot int) {
	t.clock++
	t.stamp[slot] = t.clock
}

// Victim returns the slot to replace in set: the first way with the
// lowest stamp, i.e. the first invalid way, else the first LRU way.
func (t *Tags) Victim(set uint64) int {
	base := int(set) * t.ways
	stamps := t.stamp[base : base+t.ways]
	v := 0
	for w, s := range stamps {
		if s < stamps[v] {
			v = w
		}
	}
	return base + v
}

// Install stores tag in slot as the most recently used entry and
// returns the tag it replaced, with whether that entry was valid.
func (t *Tags) Install(slot int, tag uint64) (old uint64, evicted bool) {
	old, evicted = t.tag[slot], t.stamp[slot] != 0
	t.tag[slot] = tag
	t.Touch(slot)
	return old, evicted
}

// Invalidate drops slot's entry.
func (t *Tags) Invalidate(slot int) { t.stamp[slot] = 0 }

// VisitValid calls fn for every valid tag in slot order.
func (t *Tags) VisitValid(fn func(tag uint64)) {
	for i, s := range t.stamp {
		if s != 0 {
			fn(t.tag[i])
		}
	}
}

// Reset returns the array to its NewTags state without reallocating.
func (t *Tags) Reset() {
	clear(t.tag)
	clear(t.stamp)
	t.clock = 0
}

// Reshape returns the array to a NewTags(sets, ways) state, reslicing
// the existing backing arrays when their capacity suffices.
func (t *Tags) Reshape(sets, ways int) {
	n := sets * ways
	if cap(t.tag) < n {
		*t = NewTags(sets, ways)
		return
	}
	t.tag, t.stamp, t.ways = t.tag[:n], t.stamp[:n], ways
	t.Reset()
}
