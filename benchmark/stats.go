package main

import (
	"math"
	"sort"
)

// summary is the five-number description reported beside every timing.
type summary struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P90 float64 `json:"p90"`
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks; NaN for an empty slice. The instrument keeps its own
// estimator instead of internal/stats, which is code under test.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0],
		P25: quantile(s, 0.25), P50: quantile(s, 0.50),
		P75: quantile(s, 0.75), P90: quantile(s, 0.90),
	}
}

func median(xs []float64) float64 { return summarize(xs).P50 }
