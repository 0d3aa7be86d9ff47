package exp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/reqtrace"
)

// Explain runs designs a and b over the session's single-programmed
// workload set with per-request tracing and renders the cross-design
// attribution report: where each design's nanoseconds go, per workload
// and aggregated, and a ranked list of the components driving the
// difference. The session must have Observe.ReqTraceN > 0 before the
// first run; Explain fails if any traced request violated the
// components-sum-to-total invariant, so a clean report doubles as an
// end-to-end check of the attribution engine.
func (s *Session) Explain(a, b core.Design) (*Figure, error) {
	if s.Observe == nil || s.Observe.ReqTraceN <= 0 {
		return nil, fmt.Errorf("exp: Explain requires Observe.ReqTraceN > 0 (request tracing off)")
	}
	// Memoized, so runs figures already computed this session are reused.
	p := &plan{rows: s.singleRows(), cols: designs(a, b)(s)}
	if err := s.fill(p); err != nil {
		return nil, err
	}

	// Look each run's recorder up by its result key.
	recorder := func(d core.Design, set []string) (*reqtrace.Recorder, error) {
		key := resultKey(s.cfgFor(set), d, set)
		for _, o := range s.Observers() {
			if o.Label == key && o.Req != nil {
				if l := o.Req.Latency(); l.Violations() > 0 {
					return nil, fmt.Errorf("exp: %s: %d attribution invariant violation(s); first: %s",
						key, l.Violations(), l.FirstViolation())
				}
				if l := o.Req.Energy(); l.Violations() > 0 {
					return nil, fmt.Errorf("exp: %s: %d energy attribution violation(s); first: %s",
						key, l.Violations(), l.FirstViolation())
				}
				return o.Req, nil
			}
		}
		return nil, fmt.Errorf("exp: no request-trace recorder for %s (run predates tracing?)", key)
	}

	waterfall := &stats.Table{
		Title:  fmt.Sprintf("Mean per-request latency attribution (ns): %v vs %v", a, b),
		Header: []string{"workload", "design", "requests", "total", "cache", "xlat", "queue", "refresh", "migration", "conflict", "service", "fill"},
	}
	quantiles := &stats.Table{
		Title:  "End-to-end request latency quantiles (ns)",
		Header: []string{"workload", "design", "p50", "p95", "p99"},
	}
	ewaterfall := &stats.Table{
		Title:  fmt.Sprintf("Mean per-request energy attribution (pJ): %v vs %v", a, b),
		Header: []string{"workload", "design", "total", "conflict", "service", "refresh", "migration"},
	}
	designs := [2]core.Design{a, b}
	var lat, en [2]telemetry.Ledger // per design, merged over workloads
	for _, row := range p.rows {
		var rs [2]*reqtrace.Recorder
		for j, d := range designs {
			r, err := recorder(d, row.set)
			if err != nil {
				return nil, err
			}
			rs[j] = r
			l := r.Latency()
			waterfall.AddRow(append([]string{row.name, fmt.Sprintf("%v", d), fmt.Sprintf("%d", l.Count())},
				latencyAxis.cells(l, nil)...)...)
			ewaterfall.AddRow(append([]string{row.name, fmt.Sprintf("%v", d)}, energyAxis.cells(r.Energy(), nil)...)...)
			quantiles.AddRow(row.name, fmt.Sprintf("%v", d),
				fmt.Sprintf("%d", l.Quantile(0.50)), fmt.Sprintf("%d", l.Quantile(0.95)), fmt.Sprintf("%d", l.Quantile(0.99)))
			lat[j].Merge(l)
			en[j].Merge(r.Energy())
		}
		waterfall.AddRow(append([]string{row.name, "Δ", ""}, latencyAxis.cells(rs[1].Latency(), rs[0].Latency())...)...)
		ewaterfall.AddRow(append([]string{row.name, "Δ"}, energyAxis.cells(rs[1].Energy(), rs[0].Energy())...)...)
	}
	waterfall.Caption = fmt.Sprintf(
		"Sampled 1-in-%d demand loads per core; components sum exactly to total (verified per request).",
		s.Observe.ReqTraceN)
	ewaterfall.Caption = "Integer-picojoule ledger per sampled request; component energies sum exactly to the request total (verified per request)."

	drivers, top, totalA, totalB := latencyAxis.drivers(a, b, &lat[0], &lat[1])
	headline := fmt.Sprintf("%v mean request latency %.1f ns vs %v %.1f ns (%+.1f%%); largest driver: %s (%+.1f ns/req)",
		b, totalB, a, totalA, relPct(totalB-totalA, totalA), top.comp, top.meanB-top.meanA)
	drivers.Caption = headline + "."
	edrivers, _, etotalA, etotalB := energyAxis.drivers(a, b, &en[0], &en[1])
	edrivers.Caption = fmt.Sprintf("%v mean attributed energy %.1f pJ/req vs %v %.1f pJ/req (%+.1f%%).",
		b, etotalB, a, etotalA, relPct(etotalB-etotalA, etotalA))
	fig := &Figure{
		ID:    "Explain",
		Title: fmt.Sprintf("Why %v ≠ %v: per-request latency attribution", a, b),
		Tables: []*stats.Table{
			waterfall, quantiles, ewaterfall, drivers, edrivers,
		},
	}
	fig.Title += " — " + headline
	return fig, nil
}

// axis is one attribution axis of the explain report: the components
// that carry it and the unit its means are reported in.
type axis struct {
	comps  []reqtrace.Component
	scale  float64 // ledger units per reported unit
	unit   string
	title  string // driver-table title noun
	shares bool   // driver table also shows each component's share of its design's total
}

var (
	latencyAxis = axis{
		comps: []reqtrace.Component{reqtrace.CompCache, reqtrace.CompXlat, reqtrace.CompQueue, reqtrace.CompRefresh,
			reqtrace.CompMigration, reqtrace.CompConflict, reqtrace.CompService, reqtrace.CompFill},
		scale: float64(sim.Nanosecond), unit: "ns", title: "drivers", shares: true,
	}
	// Energy carries only on DRAM-command components; the attribution is
	// causal (blocking REF/MIG commands charge each sampled request they
	// blocked in full), verified per request by the ledger invariant.
	energyAxis = axis{
		comps: []reqtrace.Component{reqtrace.CompConflict, reqtrace.CompService, reqtrace.CompRefresh, reqtrace.CompMigration},
		scale: 1, unit: "pJ", title: "energy drivers",
	}
)

// means returns l's mean total followed by the mean of each of the
// axis components, per request in the axis unit.
func (ax axis) means(l *telemetry.Ledger) []float64 {
	vs := []float64{l.Mean() / ax.scale}
	for _, c := range ax.comps {
		vs = append(vs, l.ComponentMean(int(c))/ax.scale)
	}
	return vs
}

// cells formats means(l) as table cells; with base non-nil, each cell is
// the signed difference means(l) − means(base).
func (ax axis) cells(l, base *telemetry.Ledger) []string {
	vs, format := ax.means(l), "%.1f"
	if base != nil {
		format = "%+.1f"
		for i, v := range ax.means(base) {
			vs[i] -= v
		}
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// driver is one component's mean per request under designs a and b.
type driver struct {
	comp         reqtrace.Component
	meanA, meanB float64
}

// drivers builds the ranked component-difference table over the merged
// ledgers of designs a and b: components ordered by the absolute change
// of their mean per request, largest first. It also returns the top
// driver and both designs' mean totals for the caller's caption.
func (ax axis) drivers(a, b core.Design, la, lb *telemetry.Ledger) (*stats.Table, driver, float64, float64) {
	ma, mb := ax.means(la), ax.means(lb)
	ds := make([]driver, 0, len(ax.comps))
	for i, c := range ax.comps {
		ds = append(ds, driver{comp: c, meanA: ma[i+1], meanB: mb[i+1]})
	}
	sort.SliceStable(ds, func(i, j int) bool {
		di, dj := math.Abs(ds[i].meanB-ds[i].meanA), math.Abs(ds[j].meanB-ds[j].meanA)
		if di != dj {
			return di > dj
		}
		return ds[i].comp < ds[j].comp
	})

	totalA, totalB := ma[0], mb[0]
	perReq := ax.unit + "/req"
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Ranked %s of the %v−%v difference (all workloads)", ax.title, b, a),
		Header: []string{"rank", "component", fmt.Sprintf("%v %s", a, perReq), fmt.Sprintf("%v %s", b, perReq), "Δ " + perReq, "Δ% of total"},
	}
	if ax.shares {
		tbl.Header = append(tbl.Header, fmt.Sprintf("%v share", a), fmt.Sprintf("%v share", b))
	}
	for i, d := range ds {
		delta := d.meanB - d.meanA
		row := []string{fmt.Sprintf("%d", i+1), d.comp.String(),
			fmt.Sprintf("%.1f", d.meanA), fmt.Sprintf("%.1f", d.meanB),
			fmt.Sprintf("%+.1f", delta), fmt.Sprintf("%+.2f%%", relPct(delta, totalA))}
		if ax.shares {
			row = append(row, fmt.Sprintf("%.1f%%", relPct(d.meanA, totalA)), fmt.Sprintf("%.1f%%", relPct(d.meanB, totalB)))
		}
		tbl.AddRow(row...)
	}
	return tbl, ds[0], totalA, totalB
}

// relPct returns delta as a percentage of base (0 when base is not
// positive).
func relPct(delta, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * delta / base
}
