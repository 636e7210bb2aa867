package sample

import (
	"math"
	"reflect"
	"testing"

	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

func TestDefaults(t *testing.T) {
	d := Default()
	if d.WarmupFrac != 2.0/3.0 || d.IntervalEvents != 1000 || d.GapEvents != 3000 ||
		d.MinIntervals != 4 || d.MaxIntervals != 0 || d.Confidence != 0.95 || d.TargetRelCI != 0.03 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
}

func TestSentinels(t *testing.T) {
	s := Spec{WarmupFrac: -0.5, GapEvents: -7, TargetRelCI: -2}.WithDefaults()
	if s.WarmupFrac != -1 || s.GapEvents != -1 || s.TargetRelCI != -1 {
		t.Errorf("negative sentinels must canonicalize to -1: %+v", s)
	}
	if s.warmup() != 0 || s.gap() != 0 || s.target() != 0 {
		t.Errorf("sentinels must resolve to none: warmup %v gap %d target %v", s.warmup(), s.gap(), s.target())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("sentinel spec must validate: %v", err)
	}
	if again := s.WithDefaults(); again != s {
		t.Errorf("WithDefaults not idempotent: %+v vs %+v", again, s)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{WarmupFrac: 1.5},
		{WarmupFrac: math.NaN()},
		{IntervalEvents: -5},
		{MinIntervals: 1},
		{MaxIntervals: 3}, // below default MinIntervals 6
		{Confidence: 1.2},
		{Confidence: -0.5},
		{TargetRelCI: 2},
	}
	for _, s := range bad {
		if err := s.WithDefaults().Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
}

func TestWindows(t *testing.T) {
	s := Spec{WarmupFrac: 0.5, IntervalEvents: 1000, GapEvents: 1000}
	fit, warm := s.Windows(80_000)
	if warm != 40_000 {
		t.Errorf("warm = %d, want 40000", warm)
	}
	// 40k left: window at 0..1k, then every 2k: 1 + 39000/2000 = 20.
	if fit != 20 {
		t.Errorf("fit = %d, want 20", fit)
	}
	capped := Spec{WarmupFrac: 0.5, IntervalEvents: 1000, GapEvents: 1000, MaxIntervals: 8}
	if fit, _ := capped.Windows(80_000); fit != 8 {
		t.Errorf("capped fit = %d, want 8", fit)
	}
	if fit, _ := s.Windows(1_000); fit != 0 {
		t.Errorf("tiny budget fit = %d, want 0", fit)
	}
	// Each window's end, and each later window's start after its gap.
	tiled := Spec{WarmupFrac: 0.5, IntervalEvents: 1000, GapEvents: -1}
	for _, tc := range []struct {
		spec     Spec
		accesses int
		want     int
	}{
		{s, 80_000, 39},
		{capped, 80_000, 15},
		{tiled, 80_000, 40},
		{s, 1_000, 0},
	} {
		if got := tc.spec.Boundaries(tc.accesses); got != tc.want {
			t.Errorf("%+v over %d accesses: %d boundaries, want %d", tc.spec, tc.accesses, got, tc.want)
		}
	}
}

// testMachine builds a small no-DRAM-cache machine over live synthetic
// streams, the way the facade wires one.
func testMachine(t *testing.T, cores, seed int) *sim.Machine {
	t.Helper()
	prof := *trace.Profiles()["data-serving"]
	prof.WorkingSetBytes /= 64
	sources := make([]trace.Source, cores)
	for i := range sources {
		s, err := trace.NewStream(&prof, uint64(seed), i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = s
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.Cores = cores
	cfg.L2.SizeBytes = 128 << 10
	m, err := sim.New(cfg, sources, dramcache.NewNone(offchip), stacked, offchip)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunBudgetTooSmall(t *testing.T) {
	if _, err := Run(testMachine(t, 2, 1), 2_000, Spec{}); err == nil {
		t.Fatal("Run accepted a budget too small for MinIntervals windows")
	}
}

func TestRunMeasuresAndBounds(t *testing.T) {
	const accesses = 30_000
	spec := Spec{WarmupFrac: 0.5, IntervalEvents: 500, GapEvents: 500, MinIntervals: 4, TargetRelCI: -1}
	rep, err := Run(testMachine(t, 2, 1), accesses, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every window that fits is measured.
	fit, _ := spec.Windows(accesses)
	if len(rep.Windows) != fit {
		t.Errorf("measured %d windows, want all %d", len(rep.Windows), fit)
	}
	if rep.Converged {
		t.Error("Converged must be false with no target")
	}
	if rep.UIPC <= 0 || rep.Results.Instructions == 0 {
		t.Errorf("empty report: UIPC %v, instr %d", rep.UIPC, rep.Results.Instructions)
	}
	if rep.DetailedPerCore != fit*spec.IntervalEvents {
		t.Errorf("DetailedPerCore = %d, want %d", rep.DetailedPerCore, fit*spec.IntervalEvents)
	}
	if rep.ConsumedPerCore > accesses {
		t.Errorf("consumed %d events per core, budget %d", rep.ConsumedPerCore, accesses)
	}
}

// TestRunEarlyStop: no run stops early. Whatever its target, a run
// measures every window its budget fits, simulates every core through the
// last window's end, and reports Converged from the final interval: false
// with no target or a target that interval misses, true with a lax one.
// The target changes nothing else in the report.
func TestRunEarlyStop(t *testing.T) {
	const accesses = 60_000
	spec := Spec{WarmupFrac: 0.5, IntervalEvents: 1000, GapEvents: 500, MinIntervals: 4}
	fit, warm := spec.Windows(accesses)
	end := (fit-1)*(spec.IntervalEvents+spec.GapEvents) + spec.IntervalEvents
	var first Report
	for i, tc := range []struct {
		target    float64
		converged bool
	}{
		{-1, false},
		{0.01, false},
		{0.3, true},
	} {
		spec.TargetRelCI = tc.target
		rep, err := Run(testMachine(t, 4, 1), accesses, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Converged != tc.converged {
			t.Errorf("target %v: Converged = %v, want %v (relative half-width %v)", tc.target, rep.Converged, tc.converged, rep.HalfWidth/rep.UIPC)
		}
		if len(rep.Windows) != fit {
			t.Errorf("target %v: measured %d windows, want all %d", tc.target, len(rep.Windows), fit)
		}
		if last := rep.Windows[len(rep.Windows)-1].EndEvents; last != end {
			t.Errorf("target %v: the last window ends at %d, want %d", tc.target, last, end)
		}
		if rep.ConsumedPerCore != warm+end {
			t.Errorf("target %v: consumed %d events per core, want warmup %d + last window's end %d", tc.target, rep.ConsumedPerCore, warm, end)
		}
		if i == 0 {
			first = rep
			continue
		}
		rep.Converged = first.Converged
		if !reflect.DeepEqual(rep, first) {
			t.Errorf("target %v: the report differs beyond Converged from the run with no target", tc.target)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{WarmupFrac: 0.5, IntervalEvents: 500, GapEvents: 500, MinIntervals: 4}
	a, err := Run(testMachine(t, 2, 7), 30_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testMachine(t, 2, 7), 30_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) != len(b.Windows) || a.UIPC != b.UIPC || a.HalfWidth != b.HalfWidth {
		t.Fatalf("sampled runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.Windows {
		if !reflect.DeepEqual(a.Windows[i], b.Windows[i]) {
			t.Fatalf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}
