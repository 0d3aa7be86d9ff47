package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// readBatch is a fixed set of demand reads reissued every pass; done is
// bound once so reissuing them allocates nothing.
type readBatch struct {
	reqs      []mem.Request
	completed int
	done      func()
}

func (b *readBatch) complete() { b.completed++ }

// TestManagementPathAllocationFree pins the pooled management path: once
// a pass over a fixed row set has grown every freelist, queue and group,
// the same pass again — tag misses with their table fetches, slow-level
// triggers, promotions with their table writes and, for DAS, controller
// migrations — allocates nothing.
func TestManagementPathAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		design   Design
		migLatNS float64
	}{{DAS, 146.25}, {DASFM, 0}} {
		t.Run(tc.design.String(), func(t *testing.T) {
			h := newHarness(t, tc.design, tc.migLatNS)
			// A tag cache of 32 entries against 128 rows keeps every pass
			// missing; 16-row groups with 2 fast slots keep it promoting.
			cfg := h.mgr.cfg
			cfg.TagCacheBytes = 64
			if err := h.mgr.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			h.mgr.SetLLC(h.llc) // Reset detaches the LLC

			geom := h.dev.Geometry()
			b := &readBatch{}
			b.done = b.complete
			for row := uint64(0); row < 128; row++ {
				b.reqs = append(b.reqs, mem.Request{Addr: geom.Encode(geom.RowCoord(row)), Core: 0, Done: b.done})
			}
			pass := func() {
				b.completed = 0
				for i := range b.reqs {
					h.mgr.Access(&b.reqs[i])
				}
				for b.completed < len(b.reqs) || h.ctl.PendingMigrations() > 0 {
					if !h.eng.Step() {
						break
					}
				}
				// Let the posted table writes drain.
				h.eng.RunUntil(h.eng.Now() + sim.FromNS(2000))
			}

			pass() // warm-up: groups, slots, queues and the event slab grow
			st, mig := h.mgr.Stats, h.dev.CollectStats().Migrations
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("%v: %.1f allocations per pass, want 0", tc.design, allocs)
			}
			if b.completed != len(b.reqs) {
				t.Fatalf("last pass completed %d of %d reads", b.completed, len(b.reqs))
			}
			if h.mgr.Stats.TableFetches == st.TableFetches {
				t.Error("measured passes made no table fetches")
			}
			if h.mgr.Stats.Promotions == st.Promotions {
				t.Error("measured passes made no promotions")
			}
			if h.mgr.Stats.TableWrites == st.TableWrites {
				t.Error("measured passes made no table writes")
			}
			gotMig := h.dev.CollectStats().Migrations - mig
			if tc.migLatNS > 0 && gotMig == 0 {
				t.Error("measured passes issued no controller migrations")
			}
			if err := h.mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
