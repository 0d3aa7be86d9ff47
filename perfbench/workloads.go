package main

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// point is one simulation of a workload's measured pass.
type point struct {
	label    string
	cfg      config.Config
	design   core.Design
	set      []string
	baseline bool // run through Session.Baseline (the figure's normalizer)
}

// spec is a workload: the session configuration, the benchmark sets
// whose offline profile the pass computes up front, and the points run
// one after another.
type spec struct {
	name     string
	cfg      config.Config
	profiles [][]string
	points   []point
}

// Episode lengths (instructions per core). They size one measured pass
// to about a second of host time: long against timer resolution, short
// enough that a run of about ten seconds holds ten or so passes, whose
// median rides out the host's second-to-second speed swings.
const (
	fig7aInstr = 250_000
	mixInstr   = 200_000
	knobInstr  = 100_000
)

var workloadNames = []string{"fig7a-single", "mix-4core", "knob-sweep"}

// baseConfig is the episode-scaled Table 1 system every workload starts
// from: sequential engine, invariant checks on, inputs seeded by seed.
func baseConfig(seed uint64, instr uint64) config.Config {
	cfg := config.Scaled()
	cfg.InstrPerCore = instr
	cfg.Seed = seed
	cfg.CheckInvariants = true
	cfg.Parallel = 0
	return cfg
}

// makeSpec returns the named workload for seed.
func makeSpec(name string, seed uint64) (*spec, error) {
	switch name {
	case "fig7a-single":
		return fig7aSpec(seed), nil
	case "mix-4core":
		return mixSpec(seed), nil
	case "knob-sweep":
		return knobSpec(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// fig7aSpec is the paper's headline sweep (Fig 7a) on two contrasting
// benchmarks: the Standard baseline plus the five compared designs.
// Only this workload has static designs, so only it pays for the
// generator-only profile pass.
func fig7aSpec(seed uint64) *spec {
	cfg := baseConfig(seed, fig7aInstr)
	sp := &spec{name: "fig7a-single", cfg: cfg}
	designs := []core.Design{core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS}
	for _, b := range []string{"mcf", "lbm"} {
		set := []string{b}
		sp.profiles = append(sp.profiles, set)
		sp.points = append(sp.points, point{label: b + "/" + core.Standard.String(), cfg: withCores(cfg, 1), design: core.Standard, set: set, baseline: true})
		for _, d := range designs {
			sp.points = append(sp.points, point{label: b + "/" + d.String(), cfg: withCores(cfg, 1), design: d, set: set})
		}
	}
	return sp
}

// mixSpec runs mix M8 on four cores sharing the LLC and the controller.
func mixSpec(seed uint64) *spec {
	cfg := baseConfig(seed, mixInstr)
	set := []string{"lbm", "libquantum", "mcf", "soplex"}
	c4 := withCores(cfg, len(set))
	sp := &spec{name: "mix-4core", cfg: cfg}
	sp.points = append(sp.points, point{label: "M8/" + core.Standard.String(), cfg: c4, design: core.Standard, set: set, baseline: true})
	for _, d := range []core.Design{core.DAS, core.FS} {
		sp.points = append(sp.points, point{label: "M8/" + d.String(), cfg: c4, design: d, set: set})
	}
	return sp
}

// knobSpec sweeps DAS's management knobs the way Figs 8, 9a and 9b do,
// plus a migration-latency ablation, on short episodes. Every point has
// the same machine shape, so the pool serves each from one machine.
func knobSpec(seed uint64) *spec {
	cfg := withCores(baseConfig(seed, knobInstr), 1)
	var variants []config.Config
	add := func(c config.Config) {
		for _, v := range variants {
			if v == c {
				return
			}
		}
		variants = append(variants, c)
	}
	add(cfg)
	for _, th := range exp.FilterThresholds {
		c := cfg
		c.FilterThreshold = th
		add(c)
	}
	for _, kb := range exp.TagCachePaperKB {
		c := cfg
		c.TagCacheKB = max(1, int(float64(kb)*cfg.MemoryScale()))
		add(c)
	}
	for _, g := range exp.GroupSizes {
		c := cfg
		c.GroupSize = g
		add(c)
	}
	for _, f := range []float64{0.5, 2} {
		c := cfg
		c.MigrationLatencyNS = cfg.MigrationLatencyNS * f
		add(c)
	}
	sp := &spec{name: "knob-sweep", cfg: cfg}
	for _, b := range []string{"soplex", "mcf"} {
		for _, v := range variants {
			sp.points = append(sp.points, point{
				label: fmt.Sprintf("%s/DAS/thr%d-tc%d-gs%d-mig%g", b, v.FilterThreshold, v.TagCacheKB, v.GroupSize, v.MigrationLatencyNS),
				cfg:   v, design: core.DAS, set: []string{b},
			})
		}
	}
	return sp
}

func withCores(cfg config.Config, n int) config.Config {
	cfg.Cores = n
	return cfg
}
