package reqtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// psPerNS converts the latency ledger's picoseconds to nanoseconds.
const psPerNS = 1000

// EncodeCSV writes every recorder's waterfall as long-form CSV:
// one "total" row per run followed by one row per component, runs
// sorted by label so merged output is independent of completion order.
// The energy_pj column is an exact integer picojoule sum: the component
// rows of a run sum to its total row with ==, which is the
// conservation property check.sh gates on.
func EncodeCSV(w io.Writer, recs []*Recorder) error {
	bw := bufio.NewWriterSize(w, 1<<14)
	if _, err := bw.WriteString(
		"run,requests,violations,energy_violations,component,sum_ns,mean_ns,share_pct,p50_ns,p95_ns,p99_ns,energy_pj,energy_mean_pj\n"); err != nil {
		return err
	}
	for _, r := range sortedLive(recs) {
		doc := runRows(r)
		for _, c := range append([]componentJSON{doc.Total}, doc.Components...) {
			fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%.3f,%.3f,%.2f,%d,%d,%d,%d,%.1f\n",
				csvField(doc.Run), doc.Requests, doc.Violations, doc.EnergyViolations, c.Name,
				c.SumNS, c.MeanNS, c.SharePct, c.P50NS, c.P95NS, c.P99NS, c.EnergyPJ, c.EnergyMeanPJ)
		}
	}
	return bw.Flush()
}

// componentJSON is one component's aggregated attribution.
type componentJSON struct {
	Name         string  `json:"name"`
	SumNS        float64 `json:"sum_ns"`
	MeanNS       float64 `json:"mean_ns"`
	SharePct     float64 `json:"share_pct"`
	P50NS        uint64  `json:"p50_ns"`
	P95NS        uint64  `json:"p95_ns"`
	P99NS        uint64  `json:"p99_ns"`
	EnergyPJ     int64   `json:"energy_pj"`
	EnergyMeanPJ float64 `json:"energy_mean_pj"`
}

// runJSON is one run's waterfall document.
type runJSON struct {
	Run              string          `json:"run"`
	Requests         uint64          `json:"requests"`
	Violations       uint64          `json:"violations"`
	EnergyViolations uint64          `json:"energy_violations"`
	Total            componentJSON   `json:"total"`
	Components       []componentJSON `json:"components"`
}

// runRows builds one run's waterfall from its two ledgers: the total
// row, then one row per component. Both sinks render these rows.
func runRows(r *Recorder) runJSON {
	lat, en := &r.latency, &r.energy
	totalSum := float64(lat.Sum()) / psPerNS
	doc := runJSON{
		Run: r.label, Requests: lat.Count(), Violations: lat.Violations(),
		EnergyViolations: en.Violations(),
		Total: componentJSON{
			Name: "total", SumNS: totalSum, MeanNS: lat.Mean() / psPerNS, SharePct: 100,
			P50NS: lat.Quantile(0.50), P95NS: lat.Quantile(0.95), P99NS: lat.Quantile(0.99),
			EnergyPJ: en.Sum(), EnergyMeanPJ: en.Mean(),
		},
	}
	for c := 0; c < int(NumComponents); c++ {
		sum := float64(lat.ComponentSum(c)) / psPerNS
		share := 0.0
		if totalSum > 0 {
			share = 100 * sum / totalSum
		}
		doc.Components = append(doc.Components, componentJSON{
			Name: Component(c).String(), SumNS: sum, MeanNS: lat.ComponentMean(c) / psPerNS, SharePct: share,
			P50NS: lat.ComponentQuantile(c, 0.50), P95NS: lat.ComponentQuantile(c, 0.95), P99NS: lat.ComponentQuantile(c, 0.99),
			EnergyPJ: en.ComponentSum(c), EnergyMeanPJ: en.ComponentMean(c),
		})
	}
	return doc
}

// EncodeJSON writes every recorder's waterfall as one JSON array, runs
// sorted by label.
func EncodeJSON(w io.Writer, recs []*Recorder) error {
	out := make([]runJSON, 0, len(recs))
	for _, r := range sortedLive(recs) {
		out = append(out, runRows(r))
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// sortedLive returns the non-nil recorders sorted by label.
func sortedLive(recs []*Recorder) []*Recorder {
	live := make([]*Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].label < live[j].label })
	return live
}

// csvField quotes a CSV field when it needs it (labels may contain
// commas from sweep keys).
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
