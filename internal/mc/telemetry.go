package mc

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Tracks is a system's trace-event track (tid) layout. The controller
// owns it so every recorder — controller, manager, request tracer —
// numbers tracks the same way: one track per bank, then one refresh
// track per rank, the cumulative DRAM energy counter, one request track
// per core, and last the manager's fault instants.
type Tracks struct {
	g     dram.Geometry
	cores int
}

// Tracks returns the system's track layout.
func (c *Controller) Tracks() Tracks { return Tracks{c.dev.Geometry(), c.cores} }

// Bank is the per-bank command track.
func (t Tracks) Bank(channel, rank, bank int) int { return (channel*t.g.Ranks+rank)*t.g.Banks + bank }

// Rank is the per-rank refresh track (numbered after the last bank's).
func (t Tracks) Rank(channel, rank int) int {
	return t.Bank(t.g.Channels, 0, 0) + channel*t.g.Ranks + rank
}

// Energy is the cumulative DRAM energy counter track.
func (t Tracks) Energy() int { return t.Rank(t.g.Channels, 0) }

// CoreReq is core's request track.
func (t Tracks) CoreReq(core int) int { return t.Energy() + 1 + core }

// Faults is the manager's fault-instant track.
func (t Tracks) Faults() int { return t.CoreReq(t.cores) }

// mcTelemetry is the controller's live instrument set: only what no
// always-on counter already records (row hits and activates are sampled
// from Stats and the device's bank counters instead). The controller
// keeps it behind a nil pointer so the uninstrumented hot path pays one
// branch per site; every field is additionally nil-receiver-safe, so a
// trace-only or metrics-only attachment works without special cases.
type mcTelemetry struct {
	rowConflicts *telemetry.Counter
	readLat      *telemetry.Histogram // demand-read enqueue -> burst end, ns
	writeLat     *telemetry.Histogram // write enqueue -> burst end, ns

	trace  *telemetry.TraceRecorder
	dev    *dram.Device
	tracks Tracks
}

// AttachTelemetry wires the controller's metrics into reg and its DRAM
// command events into trace. Either may be disabled (nil registry /
// recorder); when both are, the controller stays uninstrumented. Call
// once at assembly time, before traffic.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry, trace *telemetry.TraceRecorder) {
	if !reg.Enabled() && trace == nil {
		return
	}
	g := c.dev.Geometry()
	tel := &mcTelemetry{
		rowConflicts: reg.Counter("mc.row_conflicts"),
		readLat:      reg.Histogram("mc.read_latency_ns"),
		writeLat:     reg.Histogram("mc.write_latency_ns"),
		trace:        trace,
		dev:          c.dev,
		tracks:       c.Tracks(),
	}
	reg.Sample("mc.row_hits", func() int64 { return int64(c.Stats.ServedRowBuffer) })
	reg.Sample("mc.row_misses", func() int64 { return int64(c.dev.CollectStats().Activates) })
	for i, cc := range c.chans {
		cc := cc
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.read", i), func() int64 { return int64(len(cc.readQ)) })
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.write", i), func() int64 { return int64(len(cc.writeQ)) })
		reg.Sample(fmt.Sprintf("mc.queue.ch%d.mig", i), func() int64 { return int64(len(cc.migQ)) })
	}
	if trace != nil {
		for ch := 0; ch < g.Channels; ch++ {
			for r := 0; r < g.Ranks; r++ {
				for b := 0; b < g.Banks; b++ {
					trace.DefineTrack(tel.tracks.Bank(ch, r, b), fmt.Sprintf("ch%d/rk%d/bk%d", ch, r, b))
				}
				trace.DefineTrack(tel.tracks.Rank(ch, r), fmt.Sprintf("ch%d/rk%d refresh", ch, r))
			}
		}
		trace.DefineTrack(tel.tracks.Energy(), "DRAM energy (cumulative pJ)")
	}
	c.tel = tel
}

// noteEnergy samples the device's cumulative dynamic energy, the whole
// run's commands priced, on the energy track at time t (just after the
// command that moved it). Trace-only: the metrics-side energy samples
// live on the device's telemetry.
func (tl *mcTelemetry) noteEnergy(t sim.Time) {
	pj := tl.dev.DynamicEnergy(tl.dev.CollectStats()).DynamicPJ()
	tl.trace.Counter("energy_pj", int64(t), tl.tracks.Energy(), pj)
}

// noteACT records a demand row-miss activation on its bank track.
func (tl *mcTelemetry) noteACT(t sim.Time, channel int, req *Request) {
	if tl.trace == nil {
		return
	}
	p := tl.dev.SlowParams()
	name := "ACT"
	if req.Class == dram.RowFast {
		p = tl.dev.FastParams()
		name = "ACT fast"
	}
	tl.trace.Duration(name, int64(t), int64(p.Duration(p.TRCD)),
		tl.tracks.Bank(channel, req.Coord.Rank, req.Coord.Bank), int64(req.Coord.Row))
	tl.noteEnergy(t)
}

// notePRE records a precharge on a bank track. cls is the class of the
// row being closed; conflict marks demand row-conflict precharges (the
// FR-FCFS second half), as opposed to refresh/migration/policy drains.
func (tl *mcTelemetry) notePRE(t sim.Time, channel, rank, bank int, cls dram.RowClass, conflict bool) {
	if conflict {
		tl.rowConflicts.Inc()
	}
	if tl.trace == nil {
		return
	}
	p := tl.dev.SlowParams()
	if cls == dram.RowFast {
		p = tl.dev.FastParams()
	}
	tl.trace.Duration("PRE", int64(t), int64(p.Duration(p.TRP)),
		tl.tracks.Bank(channel, rank, bank), -1)
	tl.noteEnergy(t)
}

// noteColumn records a RD or WR burst [t, end) and its request latency.
func (tl *mcTelemetry) noteColumn(t, end sim.Time, channel int, req *Request, isWrite bool) {
	lat := uint64((end - req.enqueued) / sim.Nanosecond)
	name := "RD"
	if isWrite {
		tl.writeLat.Observe(lat)
		name = "WR"
	} else {
		tl.readLat.Observe(lat)
	}
	if tl.trace != nil {
		tl.trace.Duration(name, int64(t), int64(end-t),
			tl.tracks.Bank(channel, req.Coord.Rank, req.Coord.Bank), int64(req.Coord.Row))
		tl.noteEnergy(t)
	}
	if req.Trace != nil && !isWrite {
		// Lets reqtrace link a Perfetto flow arrow from the core's REQ
		// slice into this bank's RD slice.
		req.Trace.SetBankTID(tl.tracks.Bank(channel, req.Coord.Rank, req.Coord.Bank))
	}
}

// noteREF records a refresh occupying [t, t+tRFC) on the rank track.
func (tl *mcTelemetry) noteREF(t sim.Time, channel, rank int) {
	if tl.trace == nil {
		return
	}
	p := tl.dev.SlowParams()
	tl.trace.Duration("REF", int64(t), int64(p.Duration(p.TRFC)), tl.tracks.Rank(channel, rank), -1)
	tl.noteEnergy(t)
}

// noteMIG records a migration swap occupying [t, end) on the bank track.
func (tl *mcTelemetry) noteMIG(t, end sim.Time, channel, rank, bank, row int) {
	if tl.trace == nil {
		return
	}
	tl.trace.Duration("MIG", int64(t), int64(end-t), tl.tracks.Bank(channel, rank, bank), int64(row))
	tl.noteEnergy(t)
}
