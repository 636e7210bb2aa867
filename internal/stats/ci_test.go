package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestNormalQuantile pins the approximation against the textbook values
// every confidence bound in the repo is built from.
func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.841344746, 1.0},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(1), 1) || !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile must map the endpoints to ±Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile must reject p outside [0,1]")
	}
}

// TestTQuantile checks against standard t-table values. The Cornish-Fisher
// expansion is a few 1e-3 off at small df, so tolerances widen there.
func TestTQuantile(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
		tol  float64
	}{
		{0.975, 1, 12.7062, 1e-3}, // exact closed form
		{0.975, 2, 4.3027, 1e-3},  // exact closed form
		{0.975, 3, 3.1824, 3e-2},
		{0.975, 5, 2.5706, 5e-3},
		{0.975, 7, 2.3646, 3e-3},
		{0.975, 10, 2.2281, 2e-3},
		{0.975, 30, 2.0423, 1e-3},
		{0.95, 5, 2.0150, 5e-3},
		{0.995, 10, 3.1693, 1e-2},
	}
	for _, c := range cases {
		if got := TQuantile(c.p, c.df); math.Abs(got-c.want) > c.tol {
			t.Errorf("TQuantile(%v, %d) = %v, want %v ±%v", c.p, c.df, got, c.want, c.tol)
		}
	}
	if !math.IsNaN(TQuantile(0.975, 0)) {
		t.Error("TQuantile must reject df <= 0")
	}
	if !math.IsNaN(TQuantile(0, 5)) || !math.IsNaN(TQuantile(1, 5)) {
		t.Error("TQuantile must reject p outside (0,1)")
	}
}

// TestWelfordClosedForm pins Mean against closed-form fixtures: the first
// n integers have mean (n+1)/2.
func TestWelfordClosedForm(t *testing.T) {
	for _, n := range []int{2, 5, 10, 100} {
		var m Mean
		for i := 1; i <= n; i++ {
			m.Add(float64(i))
		}
		if want := float64(n+1) / 2; math.Abs(m.Value()-want) > 1e-9 {
			t.Errorf("n=%d: mean %v, want %v", n, m.Value(), want)
		}
	}
}

// meanEstimator returns the one-series ratio estimator over unit
// denominators: its Value is the sample mean of ys and its CI the
// textbook Student t interval, t·s/√n.
func meanEstimator(ys ...float64) *SummedRatios {
	windows := make([]RatioSample, len(ys))
	for i, y := range ys {
		windows[i] = RatioSample{Y: y, X: 1}
	}
	return ratioEstimator(windows...)
}

// TestMeanCIDegenerate covers the cases a deterministic simulator actually
// produces: a single interval (no variance information) and identical
// intervals (zero variance).
func TestMeanCIDegenerate(t *testing.T) {
	one := meanEstimator(3.5)
	if hw := one.CI(0.95); hw != 0 {
		t.Errorf("one sample: CI half-width %v, want 0", hw)
	}
	if rel := one.RelCI(0.95); rel != 0 {
		t.Errorf("one sample: RelCI %v, want 0", rel)
	}
	flat := meanEstimator(2, 2, 2, 2, 2, 2, 2, 2, 2, 2)
	if hw := flat.CI(0.95); hw != 0 {
		t.Errorf("zero variance: CI half-width %v, want 0", hw)
	}
	if rel := meanEstimator(-1, 1).RelCI(0.95); !math.IsInf(rel, 1) {
		t.Errorf("zero mean with spread: RelCI %v, want +Inf", rel)
	}
}

// TestMeanCIShrinks checks the sqrt(n) law: quadrupling the sample count
// roughly halves the half-width on the same distribution.
func TestMeanCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ci := func(n int) float64 {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = 10 + rng.NormFloat64()
		}
		return meanEstimator(ys...).CI(0.95)
	}
	small, large := ci(50), ci(200)
	if large >= small {
		t.Fatalf("CI half-width did not shrink: n=50 -> %v, n=200 -> %v", small, large)
	}
	if ratio := small / large; ratio < 1.4 || ratio > 2.9 {
		t.Errorf("half-width ratio %v, want ~2 (sqrt(4))", ratio)
	}
}

// TestMeanCICoverage is the honesty check on the t-based interval: over
// many deterministic trials of normal samples, ~95% of the intervals must
// contain the true mean.
func TestMeanCICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials, n, trueMean = 2000, 12, 5.0
	covered := 0
	for trial := 0; trial < trials; trial++ {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = trueMean + 0.8*rng.NormFloat64()
		}
		m := meanEstimator(ys...)
		if math.Abs(m.Value()-trueMean) <= m.CI(0.95) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.98 {
		t.Errorf("95%% CI covered the true mean in %.1f%% of trials, want ~95%%", 100*rate)
	}
}

// ratioEstimator returns the one-series SummedRatios over windows: the
// plain ratio estimator ΣY/ΣX with its linearized CI.
func ratioEstimator(windows ...RatioSample) *SummedRatios {
	u := NewSummedRatios(1)
	for _, w := range windows {
		u.AddWindow([]RatioSample{w})
	}
	return u
}

// TestRatioMeanExactOnTiling pins the property the sampled UIPC estimator
// is chosen for: when the windows tile a region, ΣY/ΣX *is* the region's
// ratio, no matter how unevenly the denominators split — exactly where a
// mean of per-window Y/X goes wrong.
func TestRatioMeanExactOnTiling(t *testing.T) {
	// Region: 1000 instructions over 800 cycles, split into uneven windows.
	windows := []RatioSample{{100, 50}, {400, 200}, {300, 350}, {200, 200}}
	var naive Mean
	for _, w := range windows {
		naive.Add(w.Y / w.X)
	}
	want := 1000.0 / 800
	if got := ratioEstimator(windows...).Value(); math.Abs(got-want) > 1e-12 {
		t.Errorf("ratio estimator = %v, want exact region ratio %v", got, want)
	}
	if math.Abs(naive.Value()-want) < 1e-3 {
		t.Errorf("test fixture too tame: naive mean %v should diverge from %v", naive.Value(), want)
	}
}

// TestRatioMeanCoverage checks the linearized ratio CI on synthetic
// known-distribution data: windows with noisy cycle counts around a true
// rate R; ~95% of intervals must contain R.
func TestRatioMeanCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials, n, trueR = 2000, 15, 2.5
	covered := 0
	for trial := 0; trial < trials; trial++ {
		windows := make([]RatioSample, n)
		for i := range windows {
			// Instructions fixed per window, cycles noisy — the shape the
			// simulator produces. The true ratio of totals is trueR.
			windows[i] = RatioSample{Y: trueR * 100, X: 100 * (1 + 0.2*rng.NormFloat64())}
		}
		r := ratioEstimator(windows...)
		if math.Abs(r.Value()-trueR) <= r.CI(0.95) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("95%% ratio CI covered the true value in %.1f%% of trials, want ~95%%", 100*rate)
	}
}

// TestRatioMeanDegenerate: one window, zero variance and no windows.
func TestRatioMeanDegenerate(t *testing.T) {
	one := ratioEstimator(RatioSample{30, 20})
	if one.N() != 1 || one.Value() != 1.5 {
		t.Errorf("one sample: N=%d Value=%v, want 1, 1.5", one.N(), one.Value())
	}
	if hw := one.CI(0.95); hw != 0 {
		t.Errorf("one sample: CI %v, want 0", hw)
	}
	w := RatioSample{40, 20}
	flat := ratioEstimator(w, w, w, w, w)
	if flat.Value() != 2 || flat.CI(0.95) != 0 {
		t.Errorf("zero variance: Value=%v CI=%v, want 2, 0", flat.Value(), flat.CI(0.95))
	}
	if empty := ratioEstimator(); empty.Value() != 0 || empty.CI(0.95) != 0 {
		t.Errorf("empty estimator must report zeros")
	}
}

// TestSummedRatiosExactOnTiling pins the estimator's defining property:
// when windows tile a region, Value reproduces Σ_core I_core/C_core
// exactly — even with wildly uneven per-core cycle splits.
func TestSummedRatiosExactOnTiling(t *testing.T) {
	u := NewSummedRatios(2)
	// Core 0: 600 instr / 400 cycles; core 1: 900 instr / 1500 cycles.
	u.AddWindow([]RatioSample{{100, 50}, {400, 900}})
	u.AddWindow([]RatioSample{{500, 350}, {500, 600}})
	want := 600.0/400 + 900.0/1500
	if got := u.Value(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %v, want exact region metric %v", got, want)
	}
	if u.N() != 2 {
		t.Errorf("N = %d, want 2", u.N())
	}
}

// TestSummedRatiosCoverage checks the delta-method CI on synthetic
// known-distribution data: per-core cycles noisy around a shared phase,
// true value known.
func TestSummedRatiosCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials, n, cores = 1200, 15, 4
	covered := 0
	for trial := 0; trial < trials; trial++ {
		u := NewSummedRatios(cores)
		for j := 0; j < n; j++ {
			w := make([]RatioSample, cores)
			for c := range w {
				// instructions fixed per window, cycles noisy: per-core
				// true ratio 1000/800 = 1.25, summed 5.0.
				w[c] = RatioSample{Y: 1000, X: 800 * (1 + 0.2*rng.NormFloat64())}
			}
			u.AddWindow(w)
		}
		if math.Abs(u.Value()-5.0) <= u.CI(0.95) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("95%% CI covered the true value in %.1f%% of trials, want ~95%%", 100*rate)
	}
}
