package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"
)

// result is everything one benchmark invocation measured.
type result struct {
	passes  []*passReport // untraced measured passes, one per child process
	iso     *isoReport    // isolated layer benchmarks (traced runs only)
	traced  []*passReport // the CPU-profiled passes (traced runs only)
	shares  map[string]float64
	sampled time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check counts attempted and failed runs over every pass. A run fails
// when it returned an error or failed a per-run check (see checkResult),
// or when its digest differs from the same run in the first pass: every
// pass, the traced ones included, simulates the same seed and must
// reproduce it exactly. A pass whose exact counters differ from the
// first pass's counts one more failure.
func (r *result) check() (attempted, failed int, notes []string) {
	ref := r.passes[0]
	all := append(append([]*passReport(nil), r.passes...), r.traced...)
	for pi, p := range all {
		attempted += p.Attempted
		failed += p.Failed
		for i, run := range p.Runs {
			if run.Err != "" {
				notes = append(notes, fmt.Sprintf("pass %d %s: %s", pi, run.Label, run.Err))
				continue
			}
			if p == ref || i >= len(ref.Runs) || ref.Runs[i].Err != "" {
				continue
			}
			if run.Digest != ref.Runs[i].Digest {
				failed++
				notes = append(notes, fmt.Sprintf("pass %d %s: digest %s differs from pass 0's %s", pi, run.Label, run.Digest, ref.Runs[i].Digest))
			}
		}
		// The digest leaves out the engine's event count; the exact
		// counters must repeat too.
		if p != ref && p.Failed == 0 && ref.Failed == 0 && p.Counters != ref.Counters {
			failed++
			notes = append(notes, fmt.Sprintf("pass %d: counters %+v differ from pass 0's %+v", pi, p.Counters, ref.Counters))
		}
	}
	return attempted, failed, notes
}

// workloadDigest folds the first pass's per-run digests, in run order,
// into one FNV-1a value that two commits can compare exactly.
func (r *result) workloadDigest() string {
	h := fnv.New64a()
	for _, run := range r.passes[0].Runs {
		fmt.Fprintf(h, "%s=%s;", run.Label, run.Digest)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// col collects one value per untraced pass.
func (r *result) col(f func(p *passReport) float64) []float64 { return collect(r.passes, f) }

func collect(ps []*passReport, f func(p *passReport) float64) []float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return v
}

func wallS(p *passReport) float64 { return p.WallS }

// series is a metric measured once per pass, reported as the median.
type series struct {
	name, unit string
	values     []float64
}

func (r *result) endToEnd(attempted, failed int) []series {
	one := func(v float64) []float64 { return []float64{v} }
	return []series{
		{"instr_per_s", "instr/s", r.col(func(p *passReport) float64 { return float64(p.Instrs) / p.WallS })},
		{"wall_s", "s", r.col(wallS)},
		{"setup_s", "s", r.col(func(p *passReport) float64 { return p.SetupS })},
		{"alloc_mb", "MB", r.col(func(p *passReport) float64 { return float64(p.AllocBytes) / 1e6 })},
		{"allocs_k", "k_objects", r.col(func(p *passReport) float64 { return float64(p.Mallocs) / 1e3 })},
		{"peak_rss_mb", "MB", r.col(func(p *passReport) float64 { return float64(p.MaxRSSKB) * 1024 / 1e6 })},
		{"ok_frac", "ratio", one(1 - float64(failed)/float64(attempted))},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *result) perLayer() []series {
	one := func(v float64) []float64 { return []float64{v} }
	c := r.passes[0].Counters
	kinstr := float64(c.Instrs) / 1000
	out := []series{
		{"sim.events", "count", one(float64(c.Events))},
		{"sim.events_per_kinstr", "1/kinstr", one(ratio(float64(c.Events), kinstr))},
		{"sim.host_ns_per_event", "ns", r.col(func(p *passReport) float64 {
			var secs float64
			for _, run := range p.Runs {
				secs += run.Secs
			}
			return ratio(secs*1e9, float64(p.Counters.Events))
		})},
		{"sim.ns_per_event_isolated", "ns", one(r.iso.SimNSPerEvent)},
		{"workload.memops_per_kinstr", "1/kinstr", one(r.iso.MemopsPerKinstr)},
		{"workload.ns_per_instr_isolated", "ns", one(r.iso.WorkloadNSPerInstr)},
		{"cache.llc_mpki", "1/kinstr", one(ratio(float64(c.LLCMisses), kinstr))},
		{"cache.ns_per_access_isolated", "ns", one(r.iso.CacheNSPerAccess)},
		{"core.promotions", "count", one(float64(c.Promotions))},
		{"core.table_fetches", "count", one(float64(c.TableFetches))},
		{"core.tag_hit_ratio", "ratio", one(ratio(c.TagHitSum, float64(c.DynamicRuns)))},
		{"mc.requests", "count", one(float64(c.Requests))},
		{"mc.migrations", "count", one(float64(c.Migrations))},
		{"mc.row_buffer_frac", "ratio", one(ratio(float64(c.RowBufferHits), float64(c.DemandServed)))},
		{"mc.ns_per_request_isolated", "ns", one(r.iso.MCNSPerRequest)},
		{"dram.activates", "count", one(float64(c.Activates))},
		{"dram.fast_activate_frac", "ratio", one(ratio(float64(c.FastActivates), float64(c.Activates)))},
		{"dram.refreshes", "count", one(float64(c.Refreshes))},
		{"exp.profile_s", "s", r.col(func(p *passReport) float64 { return p.ProfileS })},
		{"exp.build_s", "s", r.col(func(p *passReport) float64 { return p.BuildS })},
		{"exp.reset_ms_p50", "ms", r.col(func(p *passReport) float64 { return median(p.ResetMS) })},
		{"exp.run_s_p50", "s", r.col(func(p *passReport) float64 {
			secs := make([]float64, len(p.Runs))
			for i, run := range p.Runs {
				secs[i] = run.Secs
			}
			return median(secs)
		})},
		{"exp.run_samples", "count", one(float64(len(r.passes[0].Runs)))},
		{"exp.pool_hit_rate", "ratio", r.col(func(p *passReport) float64 {
			return ratio(float64(p.PoolHits), float64(p.PoolHits+p.PoolMisses))
		})},
		{"runtime.gc_cpu_frac", "ratio", r.col(func(p *passReport) float64 { return p.GCCPUFrac })},
		{"runtime.gc_cycles", "count", r.col(func(p *passReport) float64 { return float64(p.GCCycles) })},
		{"trace.overhead_frac", "ratio", one(median(collect(r.traced, wallS))/median(r.col(wallS)) - 1)},
	}
	for _, l := range layers {
		out = append(out, series{l + ".self_share", "ratio", one(r.shares[l])})
	}
	return out
}

// print writes the human-readable report and, last, the JSON line: the
// end-to-end metrics, or with a traced run the per-layer ones.
func (r *result) print(w io.Writer, sp *spec) error {
	attempted, failed, notes := r.check()
	for _, n := range notes {
		fmt.Fprintln(w, "FAIL", n)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d passes x %d runs\n", sp.name, sp.cfg.Seed, len(r.passes), len(r.passes[0].Runs))
	fmt.Fprintf(w, "digest %s\n", r.workloadDigest())
	fmt.Fprintf(w, "fail_frac %g ratio (%d of %d runs failed)\n", float64(failed)/float64(attempted), failed, attempted)
	show := func(title string, ss []series) map[string]metric {
		fmt.Fprintln(w, title)
		m := make(map[string]metric, len(ss))
		for _, s := range ss {
			q1, q2, q3 := quartiles(s.values)
			m[s.name] = metric{Value: q2, Unit: s.unit}
			if len(s.values) > 1 {
				fmt.Fprintf(w, "  %-32s %14.6g %-10s (q1 %.6g, q3 %.6g, n=%d)\n", s.name, q2, s.unit, q1, q3, len(s.values))
			} else {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.name, q2, s.unit)
			}
		}
		return m
	}
	out := output{Correct: failed == 0, Attempted: attempted, Failed: failed}
	out.Metrics = show("end to end:", r.endToEnd(attempted, failed))
	if r.traced != nil {
		fmt.Fprintf(w, "traced: %d passes, %s of CPU samples at %d Hz\n", len(r.traced), r.sampled, profileHz)
		out.Metrics = show("per layer:", r.perLayer())
		var sum float64
		for _, l := range layers {
			sum += r.shares[l]
		}
		fmt.Fprintf(w, "  self shares sum to %.12f\n", sum)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
