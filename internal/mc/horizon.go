package mc

import (
	"repro/internal/dram"
	"repro/internal/sim"
)

// horizon computes, for a tick at time t that issued nothing, the
// earliest future time any candidate command could become issuable. The
// next-event scheduler sleeps until then.
//
// The fold is deliberately over-inclusive: a horizon earlier than the
// true enabling time just produces a spurious tick that issues nothing
// and recomputes, which is always safe. The fatal direction is a missed
// enabling time, so every *time-driven* transition that can unblock a
// command contributes a term:
//
//   - per-bank/rank/bus timing for every windowed read and write
//     (tRCD, tCCD, tRP, tRAS, tRC, tRRD, tFAW, tWTR, bus turnaround);
//   - migration readiness, including the grace-window expiry that forces
//     a conflicting row closed;
//   - refresh: every quiet rank's next due time (the transition that
//     sets refreshPending), and for draining ranks the drain PREs and
//     the all-banks-quiet instant;
//   - closed-page precharge readiness for open rows nobody wants.
//
// Queue-driven transitions (new enqueues, drain-mode watermark flips,
// starvation onset, grace expiry *restricting* demand) need no term:
// enqueues wake the channel themselves, and the rest only restrict or
// re-prioritize — while the channel sleeps nothing issues, so a
// restriction taking effect mid-sleep changes nothing.
func (cc *chanCtl) horizon(t sim.Time) sim.Time {
	h := dram.Never
	geo := cc.ctl.dev.Geometry()

	// Refresh. A pending rank progresses by draining open banks and then
	// refreshing; a quiet rank's next transition is its due time.
	for r := 0; r < cc.ch.Ranks(); r++ {
		if !cc.refreshPending[r] {
			h = minTime(h, cc.ch.Rank(r).NextRefreshDue())
			continue
		}
		if e := cc.ch.EarliestRefresh(t, r); e != dram.Never {
			h = minTime(h, e)
			continue
		}
		// Some plain open row blocks the refresh; it gets precharged as
		// soon as its bank allows.
		for b := 0; b < geo.Banks; b++ {
			if cc.ch.Rank(r).Bank(b).HasOpenRow() {
				if e := cc.ch.EarliestPrecharge(t, r, b); e != dram.Never {
					h = minTime(h, e)
				}
			}
		}
	}

	// Migrations on non-refreshing ranks.
	for i := range cc.migQ {
		op := &cc.migQ[i]
		if cc.refreshPending[op.rank] {
			continue
		}
		if e := cc.ch.EarliestMigrate(t, op.rank, op.bank, op.row); e != dram.Never {
			h = minTime(h, e)
			continue
		}
		// A different open row blocks the swap. It is precharged once the
		// bank allows — but queued hits on it hold the PRE off until the
		// grace window runs out.
		bank := cc.ch.Rank(op.rank).Bank(op.bank)
		if !bank.HasOpenRow() {
			continue
		}
		e := cc.ch.EarliestPrecharge(t, op.rank, op.bank)
		if e == dram.Never {
			continue
		}
		if t-op.enqueued < migGrace && cc.pendingRowHit(op.rank, op.bank, bank.OpenRow()) {
			if g := op.enqueued + migGrace; g > e {
				e = g
			}
		}
		h = minTime(h, e)
	}

	// Lazy migration-expiry probes. Bank state is observed lazily: an
	// active-start migration's open row closes at the first can* query at
	// or past busyUntil, and the dispatch scan's behavior at later ticks
	// depends on whether an earlier silent tick already resolved the
	// transition (a conflict request spends its scan slot on the closing
	// CanPrecharge probe when it hasn't). The per-cycle poller always
	// probes at the first cycle past busyUntil, so the next-event build
	// must tick there too — the tick replays the same silent scan, keeping
	// the two builds' staleness patterns (and hence command picks)
	// identical.
	for r := 0; r < cc.ch.Ranks(); r++ {
		for b := 0; b < geo.Banks; b++ {
			if e := cc.ch.MigOpenEnd(r, b); e > t {
				h = minTime(h, e)
			}
		}
	}

	// Windowed demand requests.
	for _, req := range cc.window(cc.readQ) {
		h = minTime(h, cc.reqHorizon(t, req, false))
	}
	for _, req := range cc.window(cc.writeQ) {
		h = minTime(h, cc.reqHorizon(t, req, true))
	}

	// Closed-page: open rows nobody wants are precharged as soon as their
	// banks allow. (The old polling scheduler simply never slept while
	// any row was open; sleeping until the precharge horizon is the fix.)
	if cc.ctl.cfg.ClosedPage {
		for r := 0; r < cc.ch.Ranks(); r++ {
			for b := 0; b < geo.Banks; b++ {
				bank := cc.ch.Rank(r).Bank(b)
				if !bank.HasOpenRow() || cc.bankReserved(r, b) {
					continue
				}
				if cc.pendingRowHit(r, b, bank.OpenRow()) {
					continue
				}
				if e := cc.ch.EarliestPrecharge(t, r, b); e != dram.Never {
					h = minTime(h, e)
				}
			}
		}
	}
	return h
}

// reqHorizon returns the earliest time req's next command (column on a
// row hit, PRE on a conflict, ACT on an idle bank) could issue, assuming
// the bank state frozen at t. Banks under an overdue refresh contribute
// nothing: the refresh fold owns that rank's progress.
func (cc *chanCtl) reqHorizon(t sim.Time, req *Request, isWrite bool) sim.Time {
	rank, bankIdx := req.Coord.Rank, req.Coord.Bank
	if cc.refreshPending[rank] {
		return dram.Never
	}
	bank := cc.ch.Rank(rank).Bank(bankIdx)
	if bank.HasOpenRow() {
		if bank.OpenRow() == req.Coord.Row {
			var e sim.Time
			if isWrite {
				e = cc.ch.EarliestWrite(t, rank, bankIdx)
			} else {
				e = cc.ch.EarliestRead(t, rank, bankIdx)
			}
			if e != dram.Never {
				return e
			}
			// The row is held by a migration that completes before the
			// other constraints clear: once it closes, req needs an ACT.
			return cc.ch.EarliestActivate(t, rank, bankIdx, req.Class)
		}
		if e := cc.ch.EarliestPrecharge(t, rank, bankIdx); e != dram.Never {
			return e
		}
		// Migration-held conflicting row: expires into idle, then ACT.
		return cc.ch.EarliestActivate(t, rank, bankIdx, req.Class)
	}
	return cc.ch.EarliestActivate(t, rank, bankIdx, req.Class)
}

// minTime returns the smaller of two times.
func minTime(a, b sim.Time) sim.Time {
	if b < a {
		return b
	}
	return a
}
