package core

import (
	"fmt"
	"sort"
)

// InvariantError is a structured report of a violated management
// invariant. It identifies the invariant class and the migration group
// so a failing run can be diagnosed without reconstructing state.
type InvariantError struct {
	// Kind names the violated invariant: "perm-range", "row-conservation",
	// "perm-inverse", "pinned-fast", "fenced-promotion", "tagcache-range"
	// or "tagcache-miss".
	Kind string
	// Group is the global migration-group id (0 for cache-wide checks).
	Group uint64
	// Detail narrows the violation to a slot or row.
	Detail string
}

// Error formats the violation.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %q violated in group %d: %s", e.Kind, e.Group, e.Detail)
}

// checkGroup verifies one group's translation state:
//
//   - perm maps every logical slot to an in-range physical slot;
//   - row conservation: perm is a bijection, so every physical row of
//     the group holds exactly one logical row (the exclusive-cache
//     invariant — no row is lost or duplicated by migration);
//   - inv is the exact inverse of perm;
//   - a pinned (migration-abandoned) row never resides in a fast slot;
//   - a fenced group has never been promoted (its permutation is still
//     the identity).
func (m *Manager) checkGroup(g uint64, grp *group) error {
	size := m.layout.GroupSize()
	var seen [256]bool // ValidateLayout caps group size at 256
	for l := 0; l < size; l++ {
		p := int(grp.perm[l])
		if p >= size {
			return &InvariantError{Kind: "perm-range", Group: g,
				Detail: fmt.Sprintf("logical slot %d maps to physical slot %d (group size %d)", l, p, size)}
		}
		if seen[p] {
			return &InvariantError{Kind: "row-conservation", Group: g,
				Detail: fmt.Sprintf("physical slot %d holds two logical rows", p)}
		}
		seen[p] = true
		if int(grp.inv[p]) != l {
			return &InvariantError{Kind: "perm-inverse", Group: g,
				Detail: fmt.Sprintf("perm[%d]=%d but inv[%d]=%d", l, p, p, grp.inv[p])}
		}
		if grp.isPinned(l) && m.layout.SlotIsFast(p) {
			return &InvariantError{Kind: "pinned-fast", Group: g,
				Detail: fmt.Sprintf("pinned logical slot %d resides in fast slot %d", l, p)}
		}
		if grp.fencedKnown && grp.fenced && p != l {
			return &InvariantError{Kind: "fenced-promotion", Group: g,
				Detail: fmt.Sprintf("fenced group permuted: logical slot %d at physical slot %d", l, p)}
		}
	}
	return nil
}

// checkSwap runs after a committed promotion: the affected group must
// satisfy checkGroup, and the two rows whose table entries were just
// rewritten must be coherent with the tag cache (present — they were
// inserted as part of the commit — and within the translatable range).
func (m *Manager) checkSwap(g uint64, grp *group, promoted, victim uint64) error {
	if err := m.checkGroup(g, grp); err != nil {
		return err
	}
	total := m.geom.TotalRows()
	for _, row := range []uint64{promoted, victim} {
		if row >= total {
			return &InvariantError{Kind: "tagcache-range", Group: g,
				Detail: fmt.Sprintf("swap touched row %d beyond device rows %d", row, total)}
		}
		if !m.tagCache.Contains(row) {
			return &InvariantError{Kind: "tagcache-miss", Group: g,
				Detail: fmt.Sprintf("row %d missing from tag cache after its table entry was rewritten", row)}
		}
	}
	return nil
}

// CheckInvariants verifies the manager's entire translation state: every
// allocated migration group (see checkGroup) and tag-cache/table
// coherence (every cached entry must reference a translatable row).
// Non-dynamic designs hold no translation state and trivially pass.
// Groups are visited in ascending id order so the first reported
// violation is deterministic.
func (m *Manager) CheckInvariants() error {
	if !m.cfg.Design.Dynamic() {
		return nil
	}
	ids := make([]uint64, 0, len(m.groups))
	for g := range m.groups {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, g := range ids {
		if err := m.checkGroup(g, m.groups[g]); err != nil {
			return err
		}
	}
	total := m.geom.TotalRows()
	var cacheErr error
	m.tagCache.VisitValid(func(row uint64) {
		if cacheErr == nil && row >= total {
			cacheErr = &InvariantError{Kind: "tagcache-range",
				Detail: fmt.Sprintf("cached entry for row %d beyond device rows %d", row, total)}
		}
	})
	return cacheErr
}
