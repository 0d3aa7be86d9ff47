package telemetry

import (
	"strings"
	"testing"
)

func TestLedgerCountsEachBadDecompositionOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		comps []int64
		total int64
	}{
		{"negative component", []int64{7, -2, 5}, 10},
		{"sum != total", []int64{3, 4, 5}, 13},
		{"negative and unequal", []int64{-1, -2, 5}, 9},
		{"negative total", []int64{-4, 0, 0}, -4},
	} {
		var l Ledger
		l.Add(tc.comps, tc.total, nil)
		if l.Violations() != 1 || l.Count() != 1 {
			t.Errorf("%s: violations = %d, count = %d, want 1, 1", tc.name, l.Violations(), l.Count())
		}
		// A violating decomposition is still aggregated.
		if l.Sum() != tc.total || l.ComponentSum(0) != tc.comps[0] {
			t.Errorf("%s: sum = %d, comp0 = %d, want %d, %d", tc.name, l.Sum(), l.ComponentSum(0), tc.total, tc.comps[0])
		}
	}
	var l Ledger
	l.Add([]int64{0, 3, 4}, 7, nil)
	if l.Violations() != 0 || l.FirstViolation() != "" {
		t.Fatalf("good decomposition flagged: %d violation(s), %q", l.Violations(), l.FirstViolation())
	}
}

func TestLedgerFirstViolationText(t *testing.T) {
	l := Ledger{Unit: "pJ"}
	l.Add([]int64{0, 0, 0, 0, 0, 110, 0, 0}, 110, func() string { t.Fatal("where called on a good decomposition"); return "" })
	l.Add([]int64{0, 0, 0, 0, 0, 110, 0, 0}, 117, func() string { return "core 0" })
	l.Add([]int64{-1}, 5, func() string { return "core 9" })
	msg := l.FirstViolation()
	for _, want := range []string{"core 0", "total=117pJ", "sum=110pJ", "components=[0 0 0 0 0 110 0 0]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("first violation %q missing %q", msg, want)
		}
	}
	if l.Violations() != 2 {
		t.Fatalf("violations = %d, want 2", l.Violations())
	}
	var anon Ledger
	anon.Add([]int64{1}, 2, nil)
	if msg := anon.FirstViolation(); msg != "total=2 sum=1 components=[1]" {
		t.Fatalf("first violation without where = %q", msg)
	}
}

func TestLedgerMergeEqualsAdd(t *testing.T) {
	spans := []struct {
		comps []int64
		total int64
	}{
		{[]int64{10000, 0}, 10000},
		{[]int64{5000, 25000}, 30000},
		{[]int64{-1000, 3000}, 2000},
		{[]int64{4000, 4000}, 9000},
	}
	one := Ledger{Unit: "ps", Quantum: 1000}
	a := Ledger{Unit: "ps", Quantum: 1000}
	b := Ledger{Unit: "ps", Quantum: 1000}
	for i, s := range spans {
		one.Add(s.comps, s.total, nil)
		half := &a
		if i >= 2 {
			half = &b
		}
		half.Add(s.comps, s.total, nil)
	}
	var merged Ledger
	merged.Quantum = 1000
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil)
	if merged.Count() != one.Count() || merged.Violations() != one.Violations() ||
		merged.FirstViolation() != one.FirstViolation() || merged.Sum() != one.Sum() {
		t.Fatalf("merged count/violations/first/sum = %d/%d/%q/%d, want %d/%d/%q/%d",
			merged.Count(), merged.Violations(), merged.FirstViolation(), merged.Sum(),
			one.Count(), one.Violations(), one.FirstViolation(), one.Sum())
	}
	if merged.Mean() != 12750 || merged.Mean() != one.Mean() {
		t.Fatalf("merged mean = %v, want 12750", merged.Mean())
	}
	for c := 0; c < 2; c++ {
		if merged.ComponentSum(c) != one.ComponentSum(c) || merged.ComponentMean(c) != one.ComponentMean(c) {
			t.Errorf("component %d: merged %d/%v, want %d/%v", c,
				merged.ComponentSum(c), merged.ComponentMean(c), one.ComponentSum(c), one.ComponentMean(c))
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if merged.ComponentQuantile(c, q) != one.ComponentQuantile(c, q) {
				t.Errorf("component %d p%v: merged %d, want %d", c, q, merged.ComponentQuantile(c, q), one.ComponentQuantile(c, q))
			}
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != one.Quantile(q) {
			t.Errorf("p%v: merged %d, want %d", q, merged.Quantile(q), one.Quantile(q))
		}
	}
	// Quantiles are in Quantum units: the 30000ps span lands in the
	// log2 bucket bounded by 31 (ns).
	if got := one.Quantile(1); got != 31 {
		t.Fatalf("max quantile = %d, want 31", got)
	}
}

func TestLedgerZeroAndNil(t *testing.T) {
	var nilLedger *Ledger
	var empty Ledger
	for _, l := range []*Ledger{nilLedger, &empty} {
		if l.Count() != 0 || l.Violations() != 0 || l.FirstViolation() != "" || l.Sum() != 0 ||
			l.ComponentSum(0) != 0 || l.Mean() != 0 || l.Quantile(0.5) != 0 || l.ComponentQuantile(0, 0.5) != 0 {
			t.Fatalf("empty ledger %p reports non-zero values", l)
		}
	}
	// Without a Quantum no histograms are kept.
	empty.Add([]int64{5}, 5, nil)
	if empty.Quantile(0.5) != 0 || empty.ComponentQuantile(0, 0.5) != 0 || empty.ComponentMean(0) != 5 {
		t.Fatal("ledger without Quantum kept histograms or lost its mean")
	}
}
