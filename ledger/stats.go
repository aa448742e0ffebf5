package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summary is a timing as the ledger reports it: the median with the
// sample count, extremes and quartiles beside it. No tail percentile is
// given because figures and chaos never have twenty samples in a run.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    quantile(s, 0),
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    quantile(s, 1),
	}
}

// iqrPct is the inter-quartile range as a percentage of the median: the
// run's own noise reading. A comparison whose iqrPct exceeds the
// metric's bound is unresolved, not unchanged.
func (s summary) iqrPct() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / s.Median
}
