package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. Nearest rank never interpolates, so every reported latency
// is one that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n). The product is nudged down by less than
// any real fraction of a sample so that 99.9 % of 10,000 is rank 9,990
// and not, through floating-point dust, 9,991.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// quantile sorts a copy of xs and returns its p-th percentile.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// median is the 50th percentile of xs, in any order.
func median(xs []float64) float64 { return quantile(xs, 50) }

// tailCandidates are the percentiles a tail may be reported at, in
// ascending order.
var tailCandidates = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailSamplesBeyond is how many samples must lie above a percentile
// before it is trusted as a tail figure (choosing-metrics §1).
const tailSamplesBeyond = 10

// tailPercentile picks the highest candidate percentile that still has
// at least tailSamplesBeyond of the n samples beyond it. With fewer than
// 2×tailSamplesBeyond samples no candidate qualifies and the median is
// all the data can support.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= tailSamplesBeyond {
			best = p
		}
	}
	return best
}
