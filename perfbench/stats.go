package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// median is the middle sample (the mean of the middle two for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile of xs and whether
// it may be reported: at least minTail samples must lie strictly above its
// rank, so a p99 needs 1000 samples.
func percentile(xs []float64, pct int) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (pct*n+99)/100 - 1 // ceil(pct·n/100) - 1, in integers
	rank = max(0, min(rank, n-1))
	return s[rank], n-1-rank >= minTail
}

// nsPerCall times f over calls invocations, five times, and returns the
// median nanoseconds per call.
func nsPerCall(calls int, f func(i int)) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		batches = append(batches, float64(time.Since(t).Nanoseconds())/float64(calls))
	}
	return median(batches)
}

// settle collects garbage before a timed operation, outside its timing,
// so peak RSS reflects one operation's footprint rather than how the
// previous operations' garbage lined up with the collector's pacing.
func settle() { runtime.GC() }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
