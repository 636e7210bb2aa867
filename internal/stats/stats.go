// Package stats provides the light-weight counters, ratios, histograms and
// confidence-interval helpers the simulator and the experiment harness use
// to report results. Everything is plain in-memory arithmetic; there is no
// locking because each simulated core owns its own counters and the engine
// aggregates them single-threaded.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Ratio is a numerator/denominator pair, the workhorse for hit ratios,
// predictor accuracies and overfetch fractions.
type Ratio struct {
	Num, Den uint64
}

// Add accumulates one observation: hit says whether the numerator event
// occurred.
func (r *Ratio) Add(hit bool) {
	r.Den++
	if hit {
		r.Num++
	}
}

// AddN accumulates num events out of den trials.
func (r *Ratio) AddN(num, den uint64) {
	r.Num += num
	r.Den += den
}

// Value returns the ratio, or 0 if nothing was recorded.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// Percent returns the ratio scaled to percent.
func (r Ratio) Percent() float64 { return r.Value() * 100 }

func (r Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", r.Num, r.Den, r.Percent())
}

// Mean accumulates a running mean using Welford's update.
type Mean struct {
	n    uint64
	mean float64
}

// Add records one sample.
func (m *Mean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// N returns the sample count.
func (m Mean) N() uint64 { return m.n }

// Value returns the mean.
func (m Mean) Value() float64 { return m.mean }

// NormalQuantile returns the standard normal inverse CDF at p (0 < p < 1),
// via Acklam's rational approximation (relative error below 1.2e-9 —
// far tighter than any confidence bound reported here needs).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const low, high = 0.02425, 1 - 0.02425
	switch {
	case p < low:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > high:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// TQuantile returns the Student t inverse CDF at p with df degrees of
// freedom, via the Cornish-Fisher expansion around the normal quantile.
// Accuracy is ~1e-2 at df 3-4 and a few 1e-3 from df 5 up, for p in the
// CI-relevant range (0.9..0.995) — plenty for stating an error bar; tiny
// df (1, 2) use exact closed forms.
func TQuantile(p float64, df int) float64 {
	if df <= 0 || math.IsNaN(p) || p <= 0 || p >= 1 {
		return math.NaN()
	}
	switch df {
	case 1: // Cauchy.
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		return (2*p - 1) * math.Sqrt(2/(4*p*(1-p)))
	}
	z := NormalQuantile(p)
	v := float64(df)
	z3, z5, z7 := z*z*z, 0.0, 0.0
	z5 = z3 * z * z
	z7 = z5 * z * z
	g1 := (z3 + z) / 4
	g2 := (5*z5 + 16*z3 + 3*z) / 96
	g3 := (3*z7 + 19*z5 + 17*z3 - 15*z) / 384
	return z + g1/v + g2/(v*v) + g3/(v*v*v)
}

// RatioSample is one (numerator, denominator) observation — for sampled
// simulation, one measurement window's (instructions, cycles).
type RatioSample struct {
	Y, X float64
}

// RatioMean holds one series of the survey-sampling ratio estimator
// SummedRatios sums: its paired samples and their totals, from which
// R = ΣY/ΣX. This is the right estimator for a throughput that is itself
// a ratio of totals: the naive mean of per-window Y/X values weights
// every window equally regardless of how many cycles it spans, which
// biases the estimate by several percent as soon as windows differ in
// length; the ratio estimator reproduces the whole-region value exactly
// when the windows tile the region, and is consistent (bias O(1/n)) on a
// systematic sample of it.
type RatioMean struct {
	samples []RatioSample
	sy, sx  float64
}

// Add records one sample.
func (r *RatioMean) Add(y, x float64) {
	r.samples = append(r.samples, RatioSample{Y: y, X: x})
	r.sy += y
	r.sx += x
}

// N returns the sample count.
func (r *RatioMean) N() int { return len(r.samples) }

// Samples returns the recorded samples (not a copy).
func (r *RatioMean) Samples() []RatioSample { return r.samples }

// SummedRatios estimates U = Σ_s (ΣY_s / ΣX_s) — a sum of per-series
// RatioMean estimators sharing the same windows. This is the shape of the
// simulator's throughput metric: UIPC is the sum over cores of per-core
// instructions-over-cycles, the windows are common to all cores, and the
// cores are correlated through the shared memory system — so the variance
// must be estimated from per-window influences summed *across* series
// (inside the square), never from series-independent formulas. When the
// windows tile a region, Value reproduces the region's metric exactly.
type SummedRatios struct {
	series []RatioMean
}

// NewSummedRatios creates an estimator over the given series count (one
// per core).
func NewSummedRatios(series int) *SummedRatios {
	return &SummedRatios{series: make([]RatioMean, series)}
}

// AddWindow records one window: samples[s] is series s's (Y, X) for this
// window. len(samples) must equal the series count.
func (u *SummedRatios) AddWindow(samples []RatioSample) {
	if len(samples) != len(u.series) {
		panic(fmt.Sprintf("stats: AddWindow got %d series, estimator has %d", len(samples), len(u.series)))
	}
	for s, smp := range samples {
		u.series[s].Add(smp.Y, smp.X)
	}
}

// N returns the window count.
func (u *SummedRatios) N() int {
	if len(u.series) == 0 {
		return 0
	}
	return u.series[0].N()
}

// Value returns Σ_s ΣY_s/ΣX_s over all windows.
func (u *SummedRatios) Value() float64 {
	v, _, _ := u.totals()
	return v
}

// totals computes the estimate, the per-series ratios and the per-series
// mean denominators over all windows.
func (u *SummedRatios) totals() (value float64, ratio, xbar []float64) {
	ratio = make([]float64, len(u.series))
	xbar = make([]float64, len(u.series))
	n := u.N()
	if n == 0 {
		return 0, ratio, xbar
	}
	for s := range u.series {
		sy, sx := u.series[s].sy, u.series[s].sx
		xbar[s] = sx / float64(n)
		if sx != 0 {
			ratio[s] = sy / sx
			value += ratio[s]
		}
	}
	return value, ratio, xbar
}

// influences returns the per-window delta-method influence values:
// e_j = Σ_s (Y_sj - R_s·X_sj)/x̄_s. They sum to zero by construction;
// their spread estimates the variance of Value.
func (u *SummedRatios) influences(ratio, xbar []float64) []float64 {
	e := make([]float64, u.N())
	for j := range e {
		var sum float64
		for s := range u.series {
			if xbar[s] != 0 {
				smp := u.series[s].Samples()[j]
				sum += (smp.Y - ratio[s]*smp.X) / xbar[s]
			}
		}
		e[j] = sum
	}
	return e
}

// CI returns the half-width of the confidence interval on Value at the
// given two-sided level, via the delta method over per-window influences
// with a Student t quantile. Fewer than two windows report 0.
func (u *SummedRatios) CI(confidence float64) float64 {
	n := u.N()
	if n < 2 {
		return 0
	}
	_, ratio, xbar := u.totals()
	var ss float64
	for _, e := range u.influences(ratio, xbar) {
		ss += e * e
	}
	return TQuantile(1-(1-confidence)/2, n-1) * math.Sqrt(ss/float64(n*(n-1)))
}

// RelCI returns CI relative to the absolute estimate.
func (u *SummedRatios) RelCI(confidence float64) float64 {
	hw := u.CI(confidence)
	if hw == 0 {
		return 0
	}
	v := u.Value()
	if v == 0 {
		return math.Inf(1)
	}
	return hw / math.Abs(v)
}

// Histogram is a fixed-bucket histogram over small non-negative integers
// (footprint densities, burst lengths, way indices).
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     uint64
}

// NewHistogram creates a histogram with buckets 0..max; larger samples are
// clamped into the last bucket.
func NewHistogram(max int) *Histogram {
	return &Histogram{buckets: make([]uint64, max+1)}
}

// Add records one sample.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
	h.sum += uint64(v)
}

// Count returns the number of samples in bucket v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average sample value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Fraction returns the share of samples equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Percentile returns the smallest bucket value at or below which at least
// p (0..1) of the samples fall.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	var cum uint64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.buckets) - 1
}

// GeoMean returns the geometric mean of xs, the aggregation Figure 7 uses
// for its "Geometric Mean" panel. Non-positive inputs are rejected.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: GeoMean of empty slice")
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean requires positive inputs, got %g", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Median returns the median of xs (xs is not modified).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
