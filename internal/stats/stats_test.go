package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRatioBasics(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("zero Ratio should have Value 0")
	}
	r.Add(true)
	r.Add(true)
	r.Add(false)
	r.Add(false)
	if got := r.Value(); got != 0.5 {
		t.Errorf("Value = %v, want 0.5", got)
	}
	if got := r.Percent(); got != 50 {
		t.Errorf("Percent = %v, want 50", got)
	}
}

func TestRatioAddNMerge(t *testing.T) {
	var a, b Ratio
	a.AddN(3, 10)
	b.AddN(7, 10)
	a.AddN(b.Num, b.Den) // merging one ratio into another
	if a.Num != 10 || a.Den != 20 {
		t.Errorf("after merging: %+v, want 10/20", a)
	}
	if a.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestMeanWelford(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if got := m.Value(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if m.N() != 8 {
		t.Errorf("N = %d, want 8", m.N())
	}
}

func TestMeanSingleSample(t *testing.T) {
	var m Mean
	m.Add(42)
	if m.N() != 1 || m.Value() != 42 {
		t.Errorf("single sample: N = %d, mean = %v; want 1, 42", m.N(), m.Value())
	}
}

func TestMeanMatchesDirectComputation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var m Mean
		sum := 0.0
		for _, v := range raw {
			m.Add(float64(v))
			sum += float64(v)
		}
		want := sum / float64(len(raw))
		return math.Abs(m.Value()-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(15)
	for i := 0; i < 10; i++ {
		h.Add(1)
	}
	for i := 0; i < 5; i++ {
		h.Add(15)
	}
	h.Add(100) // clamps to 15
	h.Add(-3)  // clamps to 0
	if h.Total() != 17 {
		t.Errorf("Total = %d, want 17", h.Total())
	}
	if h.Count(15) != 6 {
		t.Errorf("Count(15) = %d, want 6", h.Count(15))
	}
	if h.Count(0) != 1 {
		t.Errorf("Count(0) = %d, want 1", h.Count(0))
	}
	if h.Count(99) != 0 || h.Count(-1) != 0 {
		t.Error("out-of-range Count should be 0")
	}
	if f := h.Fraction(1); math.Abs(f-10.0/17) > 1e-12 {
		t.Errorf("Fraction(1) = %v", f)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10)
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 5 {
		t.Errorf("P50 = %d, want 5", got)
	}
	if got := h.Percentile(1.0); got != 10 {
		t.Errorf("P100 = %d, want 10", got)
	}
	empty := NewHistogram(4)
	if empty.Percentile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram percentile/mean should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean(nil) should error")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero should error")
	}
	if _, err := GeoMean([]float64{-1}); err == nil {
		t.Error("GeoMean with negative should error")
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v) + 1
			xs = append(xs, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return true
		}
		g, err := GeoMean(xs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	// Median must not reorder the caller's slice.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}
