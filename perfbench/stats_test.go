package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5}, [3]float64{1.8125, 5.25, 7.875}},
		{[]float64{2.4, 2.6, 2.5, 2.3, 9.9}, [3]float64{2.35, 2.5, 6.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
		{nil, [3]float64{0, 0, 0}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
		if m := median(tc.in); math.Abs(m-tc.want[1]) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.in, m, tc.want[1])
		}
	}
}

// TestQuartilesLeaveInputUnsorted guards the callers that keep using
// the slice they pass in.
func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}
