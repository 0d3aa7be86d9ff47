package exp

import (
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// MakeGenerator builds the deterministic synthetic generator for core
// idx running benchmark name under cfg. The construction is shared by
// Build and the profiling pass so both see identical streams:
//
//   - footprints scale with simulated memory capacity relative to the
//     paper's 8 GB system;
//   - phase lengths (expressed per 100M instructions in the catalog)
//     scale with the episode length so every run sees the same number of
//     phase changes as a full-length sample;
//   - the seed depends on the session seed and the core index only, so
//     all designs observe the same instruction stream.
func MakeGenerator(cfg config.Config, name string, idx int) (workload.Generator, error) {
	profl, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	span := cfg.CoreSpan()
	fp := uint64(float64(profl.FootprintBytes) * cfg.MemoryScale())
	if min := uint64(2 << 20); fp < min {
		fp = min
	}
	if fp > span {
		fp = span
	}
	profl.FootprintBytes = fp
	if profl.PhaseInstr > 0 {
		scale := float64(cfg.InstrPerCore) / 100e6
		profl.PhaseInstr = uint64(float64(profl.PhaseInstr) * scale)
		if profl.PhaseInstr == 0 {
			profl.PhaseInstr = 1
		}
		profl.PhaseOffsetInstr = uint64(float64(profl.PhaseOffsetInstr) * scale)
	}
	return workload.NewSynthetic(profl, workload.Region{
		Base: uint64(idx) * span, Bytes: span,
	}, cfg.Seed+uint64(idx)*1000003)
}

// ProfileWindowFactor is how much longer the offline profiling pass is
// than the measured episode. The paper profiles whole program executions
// and then evaluates 100M-instruction samples; the factor reproduces the
// resulting lifetime-hot versus episode-hot mismatch that separates
// static from dynamic management.
const ProfileWindowFactor = 19

// profileMemo caches ProfilePass results across sessions. The pass is
// a pure function of (cfg, benchmarks) — the generators are seeded
// deterministically from them — yet it replays ProfileWindowFactor
// episodes of every benchmark, which makes it one of the most
// expensive stages of a figure run; sweeps and benchmarks rebuild
// sessions with identical workload configurations over and over. The
// key over-approximates the inputs (the full config, though only
// geometry/seed/footprint fields matter), so a collision can only mean
// a redundant recompute, never a wrong profile. Profiles are immutable
// after construction, so sharing the pointer is safe.
var profileMemo struct {
	sync.Mutex
	m map[string]*core.RowProfile
}

// ProfilePass runs a functional (timing-free) pass of every benchmark's
// generator over ProfileWindowFactor x the episode length, recording
// per-row touch counts. This is the profile the static designs
// (SAS-DRAM, CHARM) pre-assign from. Results are memoized per
// (cfg, benchmarks).
func ProfilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	key := fmt.Sprintf("%+v|%q", cfg, benchmarks)
	profileMemo.Lock()
	if p, ok := profileMemo.m[key]; ok {
		profileMemo.Unlock()
		return p, nil
	}
	profileMemo.Unlock()
	p, err := profilePass(cfg, benchmarks)
	if err != nil {
		return nil, err
	}
	profileMemo.Lock()
	if profileMemo.m == nil || len(profileMemo.m) > 64 {
		profileMemo.m = make(map[string]*core.RowProfile) // bound footprint
	}
	profileMemo.m[key] = p
	profileMemo.Unlock()
	return p, nil
}

func profilePass(cfg config.Config, benchmarks []string) (*core.RowProfile, error) {
	geom := cfg.Geometry()
	prof := core.NewRowProfile()
	var in workload.Instr
	for i, name := range benchmarks {
		gen, err := MakeGenerator(cfg, name, i)
		if err != nil {
			return nil, err
		}
		n := cfg.InstrPerCore * ProfileWindowFactor
		for k := uint64(0); k < n; k++ {
			gen.Next(&in)
			if in.Mem {
				prof.Record(geom.AddrRowID(in.Addr))
			}
		}
	}
	return prof, nil
}
