package telemetry

import "fmt"

// Ledger aggregates telescoping decompositions along one axis: each Add
// is one span whose integer components must all be non-negative and sum
// exactly to its independently measured total. A span that breaks the
// rule is counted as one violation, however many ways it breaks it, and
// still aggregated, so a bug shows up as a count rather than a silent
// attribution hole. The zero value is ready to use; Add sizes the
// component vector from its first call. Like a Registry, a Ledger
// belongs to one goroutine (or to its owner's lock).
type Ledger struct {
	// Unit suffixes the values in the first-violation text ("ps", "pJ").
	Unit string
	// Quantum, when positive, makes Add also observe the total and each
	// component, divided by Quantum and clamped at zero, in log2
	// histograms for quantile reports.
	Quantum int64

	count      uint64
	violations uint64
	first      string
	total      int64
	comps      []int64
	totalHist  Histogram
	compHist   []Histogram
}

// Add checks and aggregates one decomposition of total into comps. On
// the first violation it records the decomposition, prefixed by where()
// when where is non-nil; where is not called otherwise, so call sites
// stay allocation-free.
func (l *Ledger) Add(comps []int64, total int64, where func() string) {
	if l.comps == nil {
		l.comps = make([]int64, len(comps))
		if l.Quantum > 0 {
			l.compHist = make([]Histogram, len(comps))
		}
	}
	var sum int64
	nonNeg := true
	for i, c := range comps {
		sum += c
		nonNeg = nonNeg && c >= 0
		l.comps[i] += c
		if l.Quantum > 0 {
			l.compHist[i].Observe(l.bucket(c))
		}
	}
	if !nonNeg || sum != total {
		l.violations++
		if l.first == "" {
			l.first = fmt.Sprintf("total=%d%s sum=%d%s components=%v",
				total, l.Unit, sum, l.Unit, append([]int64(nil), comps...))
			if where != nil {
				l.first = where() + " " + l.first
			}
		}
	}
	l.count++
	l.total += total
	if l.Quantum > 0 {
		l.totalHist.Observe(l.bucket(total))
	}
}

// bucket scales v to a histogram observation.
func (l *Ledger) bucket(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v / l.Quantum)
}

// Merge adds o's aggregation into l (explain folds every workload of a
// design into one ledger). Histograms merge when both ledgers keep them;
// l keeps its own first violation if it has one.
func (l *Ledger) Merge(o *Ledger) {
	if o == nil || o.comps == nil {
		return
	}
	if l.comps == nil {
		l.comps = make([]int64, len(o.comps))
		if l.Quantum > 0 {
			l.compHist = make([]Histogram, len(o.comps))
		}
	}
	for i, c := range o.comps {
		l.comps[i] += c
	}
	if l.Quantum > 0 && o.Quantum > 0 {
		l.totalHist.Merge(&o.totalHist)
		for i := range l.compHist {
			l.compHist[i].Merge(&o.compHist[i])
		}
	}
	l.count += o.count
	l.violations += o.violations
	l.total += o.total
	if l.first == "" {
		l.first = o.first
	}
}

// Count returns the number of decompositions added.
func (l *Ledger) Count() uint64 {
	if l == nil {
		return 0
	}
	return l.count
}

// Violations returns how many decompositions failed to telescope.
func (l *Ledger) Violations() uint64 {
	if l == nil {
		return 0
	}
	return l.violations
}

// FirstViolation describes the first failed decomposition ("" if none).
func (l *Ledger) FirstViolation() string {
	if l == nil {
		return ""
	}
	return l.first
}

// Sum returns the exact sum of the totals.
func (l *Ledger) Sum() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// ComponentSum returns the exact sum of component i.
func (l *Ledger) ComponentSum(i int) int64 {
	if l == nil || l.comps == nil {
		return 0
	}
	return l.comps[i]
}

// Mean returns the mean total per decomposition (0 when empty).
func (l *Ledger) Mean() float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count)
}

// ComponentMean returns component i's mean per decomposition.
func (l *Ledger) ComponentMean(i int) float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return float64(l.comps[i]) / float64(l.count)
}

// Quantile returns the q-quantile of the totals in Quantum units
// (log2-bucket upper bound; 0 without histograms).
func (l *Ledger) Quantile(q float64) uint64 {
	if l == nil {
		return 0
	}
	return l.totalHist.Quantile(q)
}

// ComponentQuantile returns the q-quantile of component i in Quantum
// units (0 without histograms).
func (l *Ledger) ComponentQuantile(i int, q float64) uint64 {
	if l == nil || l.compHist == nil {
		return 0
	}
	return l.compHist[i].Quantile(q)
}
