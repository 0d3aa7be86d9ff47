package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// tinySpec is a three-point workload on short episodes whose last point
// asks for a geometry exp.Build rejects (three channels).
func tinySpec() *spec {
	cfg := withCores(baseConfig(7, 20_000), 1)
	bad := cfg
	bad.Channels = 3
	set := []string{"mcf"}
	return &spec{name: "tiny", cfg: cfg, points: []point{
		{label: "mcf/Standard", cfg: cfg, design: core.Standard, set: set, baseline: true},
		{label: "mcf/DAS", cfg: cfg, design: core.DAS, set: set},
		{label: "mcf/DAS/3ch", cfg: bad, design: core.DAS, set: set},
	}}
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// printed runs res.print and decodes its last line.
func printed(t *testing.T, res *result, sp *spec) (string, output) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, sp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return buf.String(), out
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("%s metrics\n got %v\nwant %v", what, names, want)
	}
}

// TestFailedBuildIsCounted checks failure accounting end to end: a point
// whose config exp.Build rejects is counted as a failed run, the good
// points still run, and every declared metric is still printed.
func TestFailedBuildIsCounted(t *testing.T) {
	sp := tinySpec()
	rep, err := runPass(sp, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 3 || rep.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", rep.Attempted, rep.Failed)
	}
	if rep.Runs[2].Err == "" || rep.Runs[0].Err != "" || rep.Runs[1].Err != "" {
		t.Fatalf("runs: %+v", rep.Runs)
	}
	if rep.Counters.Events == 0 || rep.Counters.Promotions == 0 {
		t.Fatalf("good runs not counted: %+v", rep.Counters)
	}
	endToEnd, perLayer := benchmarkMetrics(t)

	res := &result{passes: []*passReport{rep, rep}}
	text, out := printed(t, res, sp)
	if out.Correct || out.Attempted != 6 || out.Failed != 2 {
		t.Errorf("output correct=%v attempted=%d failed=%d, want false 6 2", out.Correct, out.Attempted, out.Failed)
	}
	sameNames(t, "end-to-end", out.Metrics, endToEnd)
	if got := out.Metrics["ok_frac"].Value; math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("ok_frac %v", got)
	}
	if !strings.Contains(text, "fail_frac 0.333") {
		t.Errorf("fail_frac line missing:\n%s", text)
	}

	res.iso = &isoReport{}
	res.traced = []*passReport{rep}
	res.shares = map[string]float64{"sim": 1}
	_, out = printed(t, res, sp)
	if out.Attempted != 9 || out.Failed != 3 {
		t.Errorf("traced output attempted=%d failed=%d, want 9 3", out.Attempted, out.Failed)
	}
	sameNames(t, "per-layer", out.Metrics, perLayer)
}

// TestDigestMismatchFails checks that a run whose digest differs from
// the first pass's counts as failed, and so does a pass whose exact
// counters differ.
func TestDigestMismatchFails(t *testing.T) {
	a := &passReport{Attempted: 2, Runs: []runRecord{{Label: "x", Digest: "01"}, {Label: "y", Digest: "02"}}}
	b := &passReport{Attempted: 2, Runs: []runRecord{{Label: "x", Digest: "01"}, {Label: "y", Digest: "03"}}}
	attempted, failed, notes := (&result{passes: []*passReport{a}, traced: []*passReport{b}}).check()
	if attempted != 4 || failed != 1 || len(notes) != 1 {
		t.Fatalf("attempted %d failed %d notes %q", attempted, failed, notes)
	}
	c := &passReport{Attempted: 2, Runs: a.Runs, Counters: counters{Events: 1}}
	if _, failed, _ := (&result{passes: []*passReport{a, c}}).check(); failed != 1 {
		t.Fatalf("differing counters: failed %d, want 1", failed)
	}
}

// TestCheckResult checks the per-run quota and energy checks.
func TestCheckResult(t *testing.T) {
	p := point{cfg: baseConfig(1, 1000), set: []string{"mcf"}}
	ok := &exp.Result{PerCore: []exp.CoreResult{{Retired: 800}}}
	ok.Energy.ActSlowPJ, ok.Energy.BackgroundPJ = 5, 7
	if err := checkResult(p, ok); err != nil {
		t.Fatalf("good result: %v", err)
	}
	short := &exp.Result{PerCore: []exp.CoreResult{{Retired: 799}}}
	if err := checkResult(p, short); err == nil {
		t.Error("retired below quota: want error")
	}
	missing := &exp.Result{}
	if err := checkResult(p, missing); err == nil {
		t.Error("no core results: want error")
	}
}
