package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// isoReport holds the isolated layer benchmarks' results: host time per
// unit of work in one layer, driven through its public API with its
// neighbours replaced by stubs, plus the generator's exact memory-op
// density.
type isoReport struct {
	SimNSPerEvent      float64 `json:"sim_ns_per_event"`
	WorkloadNSPerInstr float64 `json:"workload_ns_per_instr"`
	MemopsPerKinstr    float64 `json:"memops_per_kinstr"`
	CacheNSPerAccess   float64 `json:"cache_ns_per_access"`
	MCNSPerRequest     float64 `json:"mc_ns_per_request"`
}

// Work per repetition of each isolated layer benchmark, and repetitions (the
// median is reported).
const (
	isoReps         = 5
	isoEvents       = 2_000_000
	isoInstrs       = 3_000_000
	isoAccesses     = 400_000
	isoStubLatency  = 60 * sim.Nanosecond
	isoWindow       = 8  // outstanding accesses per core in timeCaches
	isoActorsPerCPU = 16 // self-rescheduling event chains per core in timeEngine
)

// sets returns the distinct benchmark sets a workload's points run.
func (sp *spec) sets() [][]string {
	var out [][]string
	seen := map[string]bool{}
	for _, p := range sp.points {
		k := fmt.Sprint(p.set)
		if !seen[k] {
			seen[k] = true
			out = append(out, p.set)
		}
	}
	return out
}

// repeat runs f isoReps times and returns the median of its results.
func repeat(f func() (float64, error)) (float64, error) {
	v := make([]float64, isoReps)
	for i := range v {
		x, err := f()
		if err != nil {
			return 0, err
		}
		v[i] = x
	}
	return median(v), nil
}

func perUnit(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// runIsolated runs every isolated layer benchmark on the workload's inputs.
func runIsolated(sp *spec) (*isoReport, error) {
	rep := &isoReport{}
	sets := sp.sets()
	cores := 0
	for _, set := range sets {
		cores = max(cores, len(set))
	}
	var err error
	if rep.SimNSPerEvent, err = repeat(func() (float64, error) {
		return timeEngine(sp.cfg, cores), nil
	}); err != nil {
		return nil, err
	}
	if rep.WorkloadNSPerInstr, err = repeat(func() (float64, error) {
		ns, memops, err := timeGenerator(sp, sets)
		rep.MemopsPerKinstr = memops
		return ns, err
	}); err != nil {
		return nil, err
	}

	accesses := make([][][]memOp, len(sets))
	for i, set := range sets {
		if accesses[i], err = l1Streams(sp.cfg, set, isoAccesses/len(sets)); err != nil {
			return nil, err
		}
	}
	streams := make([][]memOp, len(sets)) // recorded LLC miss/writeback streams
	if rep.CacheNSPerAccess, err = repeat(func() (float64, error) {
		var total time.Duration
		n := 0
		for i, set := range sets {
			d, rec, err := timeCaches(sp.cfg, set, accesses[i])
			if err != nil {
				return 0, err
			}
			total += d
			streams[i] = rec
			for _, ops := range accesses[i] {
				n += len(ops)
			}
		}
		return perUnit(total, n), nil
	}); err != nil {
		return nil, err
	}
	if rep.MCNSPerRequest, err = repeat(func() (float64, error) {
		var total time.Duration
		n := 0
		for i, set := range sets {
			d, err := timeController(sp.cfg, len(set), streams[i])
			if err != nil {
				return 0, err
			}
			total += d
			n += len(streams[i])
		}
		return perUnit(total, n), nil
	}); err != nil {
		return nil, err
	}
	return rep, nil
}

// actor is one self-rescheduling event chain of timeEngine.
type actor struct {
	eng   *sim.Engine
	rng   uint64
	left  int
	delay []sim.Time
}

func actorFire(a, _ any) {
	ac := a.(*actor)
	if ac.left == 0 {
		return
	}
	ac.left--
	ac.rng ^= ac.rng << 13
	ac.rng ^= ac.rng >> 7
	ac.rng ^= ac.rng << 17
	ac.eng.ScheduleCall(ac.delay[ac.rng%uint64(len(ac.delay))], actorFire, ac, nil)
}

// timeEngine times schedule/step on a bare sim.Engine: chains of
// events whose delays mix the simulated machine's core-cycle multiples
// (one cycle weighted double, as most events are a cycle apart) with
// the DRAM clock and a DRAM access latency, as the full simulator's
// events do. Returns ns per event.
func timeEngine(cfg config.Config, cores int) float64 {
	cyc := sim.NewClockHz(cfg.CPUGHz * 1e9).Period()
	dramCK := cfg.DRAMConfig(core.Standard).Slow.TCK
	delays := []sim.Time{cyc, cyc, 4 * cyc, 12 * cyc, 20 * cyc, dramCK, 50 * sim.Nanosecond}
	eng := sim.NewEngine()
	defer eng.Release()
	n := isoActorsPerCPU * cores
	actors := make([]actor, n)
	for i := range actors {
		actors[i] = actor{eng: eng, rng: cfg.Seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 | 1, left: isoEvents / n, delay: delays}
		eng.ScheduleCall(sim.Time(i), actorFire, &actors[i], nil)
	}
	start := time.Now()
	eng.Run()
	d := time.Since(start)
	return perUnit(d, int(eng.Executed()))
}

// timeGenerator times workload.Generator.Next over the workload's
// benchmarks with the generators the simulator builds. Returns ns per
// instruction and memory operations per thousand instructions.
func timeGenerator(sp *spec, sets [][]string) (nsPerInstr, memopsPerK float64, err error) {
	var gens []workload.Generator
	for _, set := range sets {
		cfg := withCores(sp.cfg, len(set))
		for i, name := range set {
			g, err := exp.MakeGenerator(cfg, name, i)
			if err != nil {
				return 0, 0, err
			}
			gens = append(gens, g)
		}
	}
	per := isoInstrs / len(gens)
	var in workload.Instr
	memops := 0
	start := time.Now()
	for _, g := range gens {
		for k := 0; k < per; k++ {
			g.Next(&in)
			if in.Mem {
				memops++
			}
		}
	}
	d := time.Since(start)
	total := per * len(gens)
	return perUnit(d, total), float64(memops) * 1000 / float64(total), nil
}

// memOp is one access of a pre-materialized stream.
type memOp struct {
	at    sim.Time
	addr  uint64
	write bool
}

// l1Streams materializes each core's first n/len(set) memory accesses
// from the simulator's generators, so timeCaches times the caches
// and not the generator.
func l1Streams(cfg config.Config, set []string, n int) ([][]memOp, error) {
	cfg = withCores(cfg, len(set))
	out := make([][]memOp, len(set))
	var in workload.Instr
	for i, name := range set {
		g, err := exp.MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, err
		}
		ops := make([]memOp, 0, n/len(set))
		for len(ops) < cap(ops) {
			g.Next(&in)
			if in.Mem {
				ops = append(ops, memOp{addr: in.Addr, write: in.Write})
			}
		}
		out[i] = ops
	}
	return out, nil
}

// memStub is a fixed-latency memory below the LLC that records the
// miss and writeback stream it receives.
type memStub struct {
	eng *sim.Engine
	rec []memOp
}

func completeReq(a, _ any) { a.(*mem.Request).Complete() }

func (m *memStub) Access(req *mem.Request) {
	m.rec = append(m.rec, memOp{at: m.eng.Now(), addr: req.Addr, write: req.Write})
	if req.Write {
		req.Complete()
		return
	}
	m.eng.ScheduleCall(isoStubLatency, completeReq, req, nil)
}

// issuer feeds one core's stream into its L1 with a bounded number of
// accesses in flight.
type issuer struct {
	l1   *cache.Cache
	eng  *sim.Engine
	ops  []memOp
	next int
	done int
}

type issueSlot struct {
	req mem.Request
	is  *issuer
}

func (s *issueSlot) complete() {
	s.is.done++
	s.is.issue(s)
}

func (is *issuer) issue(s *issueSlot) {
	if is.next == len(is.ops) {
		return
	}
	op := is.ops[is.next]
	is.next++
	s.req.Addr, s.req.Write, s.req.Issued = op.addr, op.write, is.eng.Now()
	is.l1.Access(&s.req)
}

// timeCaches times an L1→L2→LLC hierarchy, built with cache.New exactly
// as the simulator sizes it, over the memStub. Returns the drive time
// and the recorded LLC miss/writeback stream.
func timeCaches(cfg config.Config, set []string, streams [][]memOp) (time.Duration, []memOp, error) {
	eng := sim.NewEngine()
	defer eng.Release()
	stub := &memStub{eng: eng}
	cpuPeriod := sim.NewClockHz(cfg.CPUGHz * 1e9).Period()
	level := func(name string, kb, assoc, lat, mshrs int, lower mem.Component, cores int) (*cache.Cache, error) {
		return cache.New(cache.Config{
			Name: name, SizeBytes: kb << 10, Assoc: assoc, BlockSize: cfg.BlockSize,
			Latency: sim.Time(lat) * cpuPeriod, MSHRs: mshrs,
		}, eng, lower, cores)
	}
	llc, err := level("LLC", cfg.LLCKB, cfg.LLCAssoc, cfg.LLCLatency, cfg.LLCMSHRs, stub, len(set))
	if err != nil {
		return 0, nil, err
	}
	var issuers []*issuer
	for i := range set {
		l2, err := level("L2", cfg.L2KB, cfg.L2Assoc, cfg.L2Latency, cfg.L2MSHRs, llc, 0)
		if err != nil {
			return 0, nil, err
		}
		l1, err := level("L1", cfg.L1KB, cfg.L1Assoc, cfg.L1Latency, cfg.L1MSHRs, l2, 0)
		if err != nil {
			return 0, nil, err
		}
		is := &issuer{l1: l1, eng: eng, ops: streams[i]}
		for w := 0; w < isoWindow; w++ {
			s := &issueSlot{is: is}
			s.req.Core = i
			s.req.Done = s.complete
			is.issue(s)
		}
		issuers = append(issuers, is)
	}
	start := time.Now()
	eng.Run()
	d := time.Since(start)
	for _, is := range issuers {
		if is.done != len(is.ops) {
			return 0, nil, fmt.Errorf("caches: %d of %d accesses completed", is.done, len(is.ops))
		}
	}
	return d, stub.rec, nil
}

// feeder enqueues a recorded stream into the controller no earlier than
// the times it was recorded, with at most limit reads in flight: the
// LLC's MSHR count, which bounds the real system the same way. Without
// the bound a stream recorded against the fast stub would overrun the
// controller's queues and time a backlog no simulation builds.
type feeder struct {
	eng       *sim.Engine
	ctl       *mc.Controller
	reqs      []mc.Request
	at        []sim.Time
	next      int
	inflight  int
	limit     int
	done      int
	scheduled bool
}

func feedEvent(a, _ any) {
	f := a.(*feeder)
	f.scheduled = false
	f.feed()
}

func (f *feeder) feed() {
	now := f.eng.Now()
	for f.next < len(f.reqs) && f.at[f.next] <= now && f.inflight < f.limit {
		r := &f.reqs[f.next]
		f.next++
		if !r.Write {
			f.inflight++
		}
		f.ctl.Enqueue(r)
	}
	if f.next < len(f.reqs) && f.inflight < f.limit && !f.scheduled {
		f.scheduled = true
		f.eng.ScheduleCallAt(max(f.at[f.next], now), feedEvent, f, nil)
	}
}

func (f *feeder) readDone(mc.ServiceKind) {
	f.inflight--
	f.done++
	f.feed()
}

func (f *feeder) writeDone(mc.ServiceKind) { f.done++ }

// timeController replays a recorded LLC miss/writeback stream into a
// homogeneous (Standard) device through mc.Controller.Enqueue and times
// it until every request has completed. Returns the drive time.
func timeController(cfg config.Config, cores int, stream []memOp) (time.Duration, error) {
	cfg = withCores(cfg, cores)
	dev, err := dram.New(cfg.DRAMConfig(core.Standard))
	if err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	defer eng.Release()
	ctl, err := mc.New(mc.Config{
		WindowSize: cfg.WindowSize, WriteHigh: cfg.WriteHigh, WriteLow: cfg.WriteLow,
		StarvationLimit: sim.FromNS(cfg.StarvationLimitNS), ClosedPage: cfg.ClosedPage,
	}, eng, dev, cores)
	if err != nil {
		return 0, err
	}
	geom := cfg.Geometry()
	f := &feeder{eng: eng, ctl: ctl, reqs: make([]mc.Request, len(stream)), at: make([]sim.Time, len(stream)), limit: cfg.LLCMSHRs}
	for i, op := range stream {
		f.reqs[i] = mc.Request{Coord: geom.Decode(op.addr), Class: dram.RowSlow, Write: op.write, Done: f.readDone}
		if op.write {
			f.reqs[i].Done = f.writeDone
		}
		f.at[i] = op.at
	}
	start := time.Now()
	f.feed()
	for f.done < len(stream) {
		if !eng.Step() {
			return 0, fmt.Errorf("controller: queue drained with %d of %d requests done", f.done, len(stream))
		}
	}
	return time.Since(start), nil
}
