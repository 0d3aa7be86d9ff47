package dram

import (
	"repro/internal/energy"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// AttachTelemetry exposes the device's command counts, per-command-class
// bank occupancy (picoseconds of bank time each class consumed) and
// per-command energy (integer picojoules, split by subarray class where
// the command touches one) on reg. All of them are snapshot-time samples
// of the always-on bank counters (CollectStats): occupancy is each
// class's count times its fixed command duration, energy each count
// times the energy model's price, so the command path records nothing
// extra. Call once at assembly time; a nil registry leaves the device
// uninstrumented (the default).
func (d *Device) AttachTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	sample := func(name string, fn func(Stats) int64) {
		reg.Sample(name, func() int64 { return fn(d.CollectStats()) })
	}
	sample("dram.cmd.act", func(s Stats) int64 { return int64(s.Activates) })
	sample("dram.cmd.act_fast", func(s Stats) int64 { return int64(s.ActivatesFast) })
	sample("dram.cmd.rd", func(s Stats) int64 { return int64(s.Reads) })
	sample("dram.cmd.wr", func(s Stats) int64 { return int64(s.Writes) })
	sample("dram.cmd.pre", func(s Stats) int64 { return int64(s.Precharges) })
	sample("dram.cmd.ref", func(s Stats) int64 { return int64(s.Refreshes) })
	sample("dram.cmd.mig", func(s Stats) int64 { return int64(s.Migrations) })

	trcd := func(p *timing.Params) int64 { return p.TRCD }
	trp := func(p *timing.Params) int64 { return p.TRP }
	sample("dram.occupancy_ps.act", func(s Stats) int64 { return d.occupancy(s.Activates, s.ActivatesFast, trcd) })
	sample("dram.occupancy_ps.rd", func(s Stats) int64 { return d.occupancy(s.Reads, s.ReadsFast, (*timing.Params).ReadLatency) })
	sample("dram.occupancy_ps.wr", func(s Stats) int64 { return d.occupancy(s.Writes, s.WritesFast, (*timing.Params).WriteLatency) })
	sample("dram.occupancy_ps.pre", func(s Stats) int64 { return d.occupancy(s.Precharges, s.PrechargesFast, trp) })
	sample("dram.occupancy_ps.ref", func(s Stats) int64 { return int64(s.Refreshes) * int64(d.slow.Duration(d.slow.TRFC)) })
	sample("dram.occupancy_ps.mig", func(s Stats) int64 { return int64(s.Migrations) * int64(d.migrationLatency) })

	price := func(name string, pj func(energy.Breakdown) int64) {
		sample(name, func(s Stats) int64 { return pj(d.DynamicEnergy(s)) })
	}
	price("dram.energy_pj.act_slow", func(b energy.Breakdown) int64 { return b.ActSlowPJ })
	price("dram.energy_pj.act_fast", func(b energy.Breakdown) int64 { return b.ActFastPJ })
	price("dram.energy_pj.pre_slow", func(b energy.Breakdown) int64 { return b.PreSlowPJ })
	price("dram.energy_pj.pre_fast", func(b energy.Breakdown) int64 { return b.PreFastPJ })
	price("dram.energy_pj.rd_slow", func(b energy.Breakdown) int64 { return b.RdSlowPJ })
	price("dram.energy_pj.rd_fast", func(b energy.Breakdown) int64 { return b.RdFastPJ })
	price("dram.energy_pj.wr_slow", func(b energy.Breakdown) int64 { return b.WrSlowPJ })
	price("dram.energy_pj.wr_fast", func(b energy.Breakdown) int64 { return b.WrFastPJ })
	price("dram.energy_pj.ref", func(b energy.Breakdown) int64 { return b.RefPJ })
	price("dram.energy_pj.mig", func(b energy.Breakdown) int64 { return b.MigPJ })
}

// occupancy is the bank time, in picoseconds, that n commands of one
// kind hold, nFast of them on fast rows, when the command lasts cycles
// clocks of its row class's timing set.
func (d *Device) occupancy(n, nFast uint64, cycles func(*timing.Params) int64) int64 {
	return int64(n-nFast)*int64(d.slow.Duration(cycles(&d.slow))) +
		int64(nFast)*int64(d.fast.Duration(cycles(&d.fast)))
}

// DynamicEnergy prices command counts s (per-command, per-class) with
// the device's energy model; the background term is left at zero.
func (d *Device) DynamicEnergy(s Stats) energy.Breakdown {
	return d.emodel.Breakdown(s.EnergyCounts(), 0, 0)
}
