// Package workload produces deterministic synthetic instruction streams
// that stand in for the SPEC CPU2006 memory-bound subset of Table 2.
//
// Each benchmark is modeled as a mixture of access-pattern components —
// sequential streaming, fixed-stride walking, a skewed hot region, and
// dependent pointer chasing — parameterized to approximate the published
// MPKI, footprint, write ratio, and temporal-locality behaviour of the
// real benchmark. Hot regions drift across the footprint in phases,
// which is the program behaviour that separates dynamic (DAS) from
// static profiled (SAS/CHARM) management in the paper.
package workload

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Instr is one instruction of a synthetic stream.
type Instr struct {
	// Mem marks a load or store; non-memory instructions only occupy
	// pipeline width.
	Mem bool
	// Write marks stores.
	Write bool
	// Dependent marks loads on a serial dependence chain (pointer
	// chasing): the core must wait for all older loads before issuing.
	Dependent bool
	// Addr is the physical byte address of a memory instruction.
	Addr uint64
}

// Generator yields an unbounded deterministic instruction stream.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next writes the next instruction into in.
	Next(in *Instr)
}

// Region is the physical address range a generator may touch.
type Region struct {
	Base  uint64
	Bytes uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Bytes
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string
	// MemFraction of instructions access memory.
	MemFraction float64
	// WriteFraction of memory accesses are stores.
	WriteFraction float64
	// FootprintBytes is the nominal data footprint.
	FootprintBytes uint64

	// Mixture weights over memory accesses (normalized internally).
	LocalWeight  float64 // cache-resident working set (stack, hot heap top)
	StreamWeight float64 // sequential small-step walk
	StrideWeight float64 // fixed large-stride walk
	HotWeight    float64 // skewed accesses into a hot region
	ChaseWeight  float64 // dependent uniform-random accesses

	// LocalBytes is the resident working-set size (default 128 KiB; it
	// should fit in the private caches so the component produces almost
	// no DRAM traffic and only dilutes MPKI, as the non-miss bulk of a
	// real program does).
	LocalBytes uint64
	// StreamStep is the byte step of the streaming walk (default 8).
	StreamStep uint64
	// StrideBytes is the stride of the strided walk (default 320).
	StrideBytes uint64
	// HotFraction is the hot region size as a fraction of footprint.
	HotFraction float64
	// HotSkew is the power-law exponent of hot accesses (>=1; larger
	// values concentrate accesses on fewer rows).
	HotSkew float64
	// PhaseInstr is the phase length in instructions; every phase the
	// hot region re-centers. Zero means a stationary hot region.
	PhaseInstr uint64
	// PhaseShiftFraction is how far (as a fraction of the footprint)
	// the hot region moves each phase.
	PhaseShiftFraction float64
	// PhaseOffsetInstr advances the phase clock, positioning the stream
	// mid-phase-schedule at instruction zero. Placing a phase boundary
	// just inside the measurement warm-up reproduces the paper's
	// observation that a sampled execution point lives in a phase the
	// lifetime profile underrepresents (Section 7.1).
	PhaseOffsetInstr uint64
	// NoScatter disables the row-granular physical scatter (below);
	// useful in unit tests that reason about exact addresses.
	NoScatter bool
}

// scatterRowBytes is the granularity of the physical scatter permutation:
// one DRAM row. An operating system allocates physical pages roughly
// randomly, so a program's virtually-contiguous working set is scattered
// across the physical row space; without this, synthetic hot regions
// would pile into a handful of migration groups in a way no real system
// exhibits.
const scatterRowBytes = 8 << 10

// MinFootprintBytes is the smallest footprint a profile may have.
const MinFootprintBytes = 1 << 20

// Validate checks the profile is well-formed.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if p.MemFraction <= 0 || p.MemFraction >= 1 {
		return fmt.Errorf("workload %s: MemFraction must be in (0,1), got %v", p.Name, p.MemFraction)
	}
	if p.WriteFraction < 0 || p.WriteFraction > 1 {
		return fmt.Errorf("workload %s: WriteFraction must be in [0,1]", p.Name)
	}
	if p.FootprintBytes < MinFootprintBytes {
		return fmt.Errorf("workload %s: footprint below 1 MiB", p.Name)
	}
	total := p.LocalWeight + p.StreamWeight + p.StrideWeight + p.HotWeight + p.ChaseWeight
	if total <= 0 {
		return fmt.Errorf("workload %s: no positive mixture weight", p.Name)
	}
	if p.HotWeight > 0 && (p.HotFraction <= 0 || p.HotFraction > 1) {
		return fmt.Errorf("workload %s: HotFraction must be in (0,1] when HotWeight > 0", p.Name)
	}
	return nil
}

// synth is the mixture-model generator.
type synth struct {
	p      Profile
	region Region
	rng    sim.RNG

	// cumulative mixture thresholds in [0,1)
	cLocal, cStream, cStride, cHot float64

	streamPos uint64
	stridePos uint64
	hotBase   uint64 // offset of hot region within footprint
	hotBytes  uint64

	// Division-free stepping state. Next runs once per simulated
	// instruction, so the per-call modulo reductions are precomputed:
	// every walker position stays < FootprintBytes by conditional
	// subtraction (steps are pre-reduced mod footprint), and the phase
	// schedule is a countdown instead of a divisibility test.
	phaseLeft  uint64 // instructions until the next hot-region shift (0 = no phases)
	phaseShift uint64 // hot-region shift per phase, pre-reduced mod footprint
	streamStep uint64 // StreamStep mod footprint
	strideStep uint64 // StrideBytes mod footprint

	// rowPerm maps virtual row index -> physical row index within the
	// footprint (the OS page-allocation scatter). It is shared with every
	// generator of the same permutation key (permCache): never write it.
	rowPerm []uint32
}

// NewSynthetic builds a generator for profile p over region, seeded
// deterministically.
func NewSynthetic(p Profile, region Region, seed uint64) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if region.Bytes < p.FootprintBytes {
		return nil, fmt.Errorf("workload %s: region %d B smaller than footprint %d B",
			p.Name, region.Bytes, p.FootprintBytes)
	}
	if p.LocalBytes == 0 {
		p.LocalBytes = 128 << 10
	}
	if p.StreamStep == 0 {
		p.StreamStep = 8
	}
	if p.StrideBytes == 0 {
		p.StrideBytes = 320
	}
	if p.HotSkew < 1 {
		p.HotSkew = 1
	}
	total := p.LocalWeight + p.StreamWeight + p.StrideWeight + p.HotWeight + p.ChaseWeight
	g := &synth{
		p:      p,
		region: region,
		rng:    *sim.NewRNG(seed ^ hashName(p.Name)),
		cLocal: p.LocalWeight / total,
	}
	g.cStream = g.cLocal + p.StreamWeight/total
	g.cStride = g.cStream + p.StrideWeight/total
	g.cHot = g.cStride + p.HotWeight/total
	g.hotBytes = uint64(float64(p.FootprintBytes) * p.HotFraction)
	if g.hotBytes == 0 {
		g.hotBytes = 1 << 12
	}
	// Start the stream and stride walkers at distinct offsets so the
	// components do not trivially collide.
	g.stridePos = p.FootprintBytes / 2
	g.streamStep = p.StreamStep % p.FootprintBytes
	g.strideStep = p.StrideBytes % p.FootprintBytes
	if p.PhaseInstr > 0 {
		g.phaseShift = uint64(float64(p.FootprintBytes)*p.PhaseShiftFraction) % p.FootprintBytes
		// The k-th generated instruction shifts the phase when
		// (k + PhaseOffsetInstr) ≡ 0 (mod PhaseInstr); the first such
		// k ≥ 1 is PhaseInstr - PhaseOffsetInstr%PhaseInstr.
		g.phaseLeft = p.PhaseInstr - p.PhaseOffsetInstr%p.PhaseInstr
	}
	if !p.NoScatter {
		// Scatter the footprint's rows over the core's whole region, the
		// way OS page allocation spreads a program's working set over all
		// of physical memory. Migration groups partition the physical row
		// space, so without the spread a workload could only ever use the
		// fast slots of the groups its contiguous footprint overlaps.
		spanRows := region.Bytes / scatterRowBytes
		fpRows := (p.FootprintBytes + scatterRowBytes - 1) / scatterRowBytes
		if spanRows > uint64(int(^uint32(0))) {
			return nil, fmt.Errorf("workload %s: region too large for scatter permutation", p.Name)
		}
		g.rowPerm = scatterPerms.prefix(seed^0xC0FFEE^hashName(p.Name), spanRows, fpRows)
	}
	return g, nil
}

// permKey names one scatter permutation prefix: the first fpRows
// entries of a shuffle of spanRows rows drawn from seed.
type permKey struct{ seed, spanRows, fpRows uint64 }

// permCache shares scatter permutation prefixes between generators. A
// prefix is a pure function of its key and read-only once built, so the
// profile pass and every run of a benchmark read one copy instead of
// re-shuffling the core's whole region per generator.
type permCache struct {
	mu sync.Mutex
	// limit bounds the cached prefixes' bytes; an insert past it empties
	// the cache first, so long-lived processes sweeping many configs
	// cannot pin unbounded memory.
	limit uint64
	bytes uint64
	m     map[permKey][]uint32
	// scratch is the whole-region shuffle buffer: a generator keeps
	// only the footprint's prefix, so the region-sized rest is reused.
	scratch []uint32
}

// scatterPerms is the process-wide prefix cache NewSynthetic draws from.
var scatterPerms = permCache{limit: 64 << 20}

// prefix returns the shared, read-only prefix for (seed, spanRows,
// fpRows), shuffling it on a miss.
func (c *permCache) prefix(seed, spanRows, fpRows uint64) []uint32 {
	k := permKey{seed, spanRows, fpRows}
	c.mu.Lock()
	defer c.mu.Unlock()
	if perm, ok := c.m[k]; ok {
		return perm
	}
	if uint64(cap(c.scratch)) < spanRows {
		c.scratch = make([]uint32, spanRows)
	}
	perm := c.scratch[:spanRows]
	for i := range perm {
		perm[i] = uint32(i)
	}
	shuffle := sim.NewRNG(seed)
	// Partial Fisher-Yates: only the first fpRows entries are used.
	for i := uint64(0); i < fpRows && i < spanRows-1; i++ {
		j := i + uint64(shuffle.Intn(int(spanRows-i)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := slices.Clone(perm[:fpRows])
	size := 4 * fpRows
	if c.m == nil || c.bytes+size > c.limit {
		c.m = make(map[permKey][]uint32)
		c.bytes = 0
	}
	c.m[k] = out
	c.bytes += size
	return out
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Name implements Generator.
func (g *synth) Name() string { return g.p.Name }

// Next implements Generator.
func (g *synth) Next(in *Instr) {
	if g.phaseLeft > 0 {
		g.phaseLeft--
		if g.phaseLeft == 0 {
			g.hotBase += g.phaseShift
			if g.hotBase >= g.p.FootprintBytes {
				g.hotBase -= g.p.FootprintBytes
			}
			g.phaseLeft = g.p.PhaseInstr
		}
	}
	*in = Instr{}
	if g.rng.Float64() >= g.p.MemFraction {
		return
	}
	in.Mem = true
	in.Write = g.rng.Float64() < g.p.WriteFraction
	u := g.rng.Float64()
	var off uint64
	switch {
	case u < g.cLocal:
		// Resident working set at the bottom of the footprint.
		off = g.rng.Uint64n(g.p.LocalBytes) &^ 7
	case u < g.cStream:
		off = g.streamPos
		if g.streamPos += g.streamStep; g.streamPos >= g.p.FootprintBytes {
			g.streamPos -= g.p.FootprintBytes
		}
	case u < g.cStride:
		off = g.stridePos
		if g.stridePos += g.strideStep; g.stridePos >= g.p.FootprintBytes {
			g.stridePos -= g.p.FootprintBytes
		}
	case u < g.cHot:
		off = g.hotOffset()
	default:
		// Pointer chase: uniform random, serially dependent, 8-byte
		// aligned like a pointer load.
		off = g.rng.Uint64n(g.p.FootprintBytes) &^ 7
		in.Dependent = !in.Write
	}
	// Every component already reduces its offset below the footprint;
	// only an oversized LocalBytes can exceed it, and then the (cold)
	// reduction matches the old unconditional modulo.
	if off >= g.p.FootprintBytes {
		off %= g.p.FootprintBytes
	}
	in.Addr = g.region.Base + g.scatter(off)
}

// scatter applies the physical row permutation to a footprint offset,
// yielding an offset within the whole region.
func (g *synth) scatter(off uint64) uint64 {
	if g.rowPerm == nil {
		return off
	}
	row := off / scatterRowBytes
	return uint64(g.rowPerm[row])*scatterRowBytes + off%scatterRowBytes
}

// hotOffset draws a power-law-skewed offset within the drifting hot
// region: rank = N * u^skew concentrates mass near rank 0; the rank is
// then spread over the hot region at 64-byte granularity.
func (g *synth) hotOffset() uint64 {
	u := g.rng.Float64()
	for i := 1.0; i < g.p.HotSkew; i++ {
		u *= g.rng.Float64()
	}
	blocks := g.hotBytes >> 6
	if blocks == 0 {
		blocks = 1
	}
	rank := uint64(u * float64(blocks))
	if rank >= blocks {
		rank = blocks - 1
	}
	// hotBase < footprint and rank<<6 < hotBytes <= footprint, so one
	// conditional subtraction replaces the modulo.
	off := g.hotBase + rank<<6
	if off >= g.p.FootprintBytes {
		off -= g.p.FootprintBytes
	}
	return off
}
