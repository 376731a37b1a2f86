package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice: the smallest value with at least p of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n ≥ 1 samples.
// The epsilon keeps a product such as 0.9·100 from rounding up a rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// tailSupported reports whether n samples leave at least ten beyond the
// p-quantile — the rule for which percentile a run may report.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= 10
}

// Parameters of typical.
const (
	typicalShare = 0.6  // the faster part of the sample that is searched
	typicalBand  = 1.03 // upper edge of a band ÷ its lower edge
)

// typical returns the most common value of an ascending sample: the
// middle sample of the band [x, typicalBand·x] that holds the most samples,
// searched among the faster typicalShare of them. On a shared host an op
// runs at one of a few speeds — undisturbed, slowed by a neighbour, now
// and then faster than usual — and a run sees them in a mix that changes
// from run to run. The undisturbed ops are the narrowest cluster, so the
// densest band finds them where a fixed quantile finds whichever state
// happens to cover it. Leaving out the slowest part keeps a slow state
// that covers most of a run from out-voting them.
func typical(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	fast := sorted[:max(int(typicalShare*float64(len(sorted))), 1)]
	lo, hi := 0, 0 // the fullest band is fast[lo:hi]
	for i, j := 0, 0; i < len(fast); i++ {
		for j < len(fast) && fast[j] <= typicalBand*fast[i] {
			j++
		}
		if j-i > hi-lo {
			lo, hi = i, j
		}
	}
	return fast[(lo+hi)/2]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeReps calls f at least minReps times, then until budget is spent or
// maxReps is reached, and returns each call's duration in milliseconds.
func timeReps(minReps, maxReps int, budget time.Duration, f func()) []float64 {
	out := make([]float64, 0, minReps)
	begin := time.Now()
	for i := 0; i < maxReps && (i < minReps || time.Since(begin) < budget); i++ {
		t0 := time.Now()
		f()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}
