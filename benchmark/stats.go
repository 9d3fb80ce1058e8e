package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. An empty
// sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the percentiles a tail may be reported at.
var tailCandidates = []float64{50, 75, 80, 90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that still
// has at least ten of n samples beyond it — a tail read off fewer samples
// is one or two outliers, not a percentile. Fewer than 20 samples support
// nothing above the median.
func highestPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// worseBy returns by what share of base the candidate is worse, honouring
// the metric's direction: positive means worse, negative means better.
func worseBy(base, cand float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}

// withinBound reports whether cand is no worse than base by more than
// bound (a share of base).
func withinBound(base, cand, bound float64, higherIsBetter bool) bool {
	return worseBy(base, cand, higherIsBetter) <= bound
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
