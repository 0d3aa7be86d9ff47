// Package mc implements the memory controller of Table 1: per-channel
// 32-entry scheduling windows, FR-FCFS command scheduling with an
// open-page policy, posted writes with watermark-based draining, refresh
// management, and DAS-DRAM migration operations that reserve a bank,
// drain it, and occupy it for the migration latency.
package mc

import (
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/telemetry/reqtrace"
)

// ServiceKind classifies where a request was serviced, feeding the
// access-location breakdowns of Figures 7c/7f/8b.
type ServiceKind uint8

const (
	// ServiceRowBuffer means the request hit an already-open row.
	ServiceRowBuffer ServiceKind = iota
	// ServiceFast means the request opened a fast-subarray row.
	ServiceFast
	// ServiceSlow means the request opened a slow-subarray row.
	ServiceSlow
)

// String labels the service kind.
func (k ServiceKind) String() string {
	switch k {
	case ServiceRowBuffer:
		return "row-buffer"
	case ServiceFast:
		return "fast"
	default:
		return "slow"
	}
}

// Request is one DRAM-bound access, post-translation: the coordinate is
// physical and the class tells the device which timing set the row uses.
type Request struct {
	Coord dram.Coord
	Class dram.RowClass
	Write bool
	Meta  bool // translation-table traffic
	Core  int
	// Done fires when the data burst completes (reads) or the write is
	// issued to the device (writes). May be nil.
	Done func(served ServiceKind)
	// Release fires when the controller permanently lets go of the
	// request — after Done for reads, at write issue for posted writes —
	// so a producer recycling request storage knows exactly when reuse is
	// safe. May be nil. Like Done it must be bound once per pooled slot,
	// never allocated per request, or the recycling saves nothing.
	Release func()
	// Trace carries the sampled flight-recorder span across the
	// translation boundary; nil means untraced.
	Trace *reqtrace.Span

	enqueued  sim.Time
	firstOpen bool        // an ACT was issued for this request
	doneKind  ServiceKind // kind latched at issue for the Done event
}

// fireDone is the trampoline the controller schedules read completions
// through: the service kind is latched into the request at issue time,
// so completion needs no per-request closure.
func fireDone(a, _ any) {
	r := a.(*Request)
	r.Done(r.doneKind)
	// The burst-end event is the controller's last touch of a read:
	// it left the queues and the traced ring at issue, so the slot can
	// go back to its producer now. Done runs first — it may read the
	// request's fields and must not observe a recycled slot.
	if r.Release != nil {
		r.Release()
	}
}

// migOp is one pending migration (promotion swap) on a specific bank.
// row is the physical source row being promoted: if it is already open,
// the swap starts straight out of the row buffer. Queued by value: the
// migration queue owns its ops, so a migration allocates nothing.
type migOp struct {
	channel, rank, bank, row int
	done                     func()
	enqueued                 sim.Time
}
