package unisoncache_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	uc "unisoncache"
)

// sampleRun is the shared small sampled configuration: big enough for
// the default schedule, small enough to keep the wall fast.
func sampleRun(workload string, design uc.DesignKind) uc.Run {
	return uc.Run{
		Workload:        workload,
		Design:          design,
		Capacity:        256 << 20,
		Cores:           4,
		AccessesPerCore: 40_000,
		Seed:            1,
		Sampling:        uc.SampleSpec{IntervalEvents: 500, GapEvents: 1500, MinIntervals: 4},
	}
}

func TestExecuteSampled(t *testing.T) {
	res, err := uc.Execute(sampleRun("web-search", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	ci := res.CI
	if ci == nil {
		t.Fatal("sampled run returned no CI")
	}
	if ci.UIPC != res.UIPC {
		t.Errorf("CI.UIPC %v != Result.UIPC %v", ci.UIPC, res.UIPC)
	}
	if len(ci.Windows) < 4 {
		t.Errorf("measured %d windows, want >= MinIntervals", len(ci.Windows))
	}
	if ci.Confidence != 0.95 {
		t.Errorf("Confidence = %v, want the 0.95 default", ci.Confidence)
	}
	if ci.HalfWidth <= 0 {
		t.Errorf("HalfWidth = %v, want > 0 on a live workload", ci.HalfWidth)
	}
	wantDetailed := uint64(len(ci.Windows)) * 500 * 4
	if ci.DetailedEvents != wantDetailed {
		t.Errorf("DetailedEvents = %d, want %d", ci.DetailedEvents, wantDetailed)
	}
	if ci.FullRunEvents != 40_000*4 {
		t.Errorf("FullRunEvents = %d, want %d", ci.FullRunEvents, 40_000*4)
	}
	if ci.SimulatedEvents > ci.FullRunEvents {
		t.Errorf("SimulatedEvents %d exceed the budget %d", ci.SimulatedEvents, ci.FullRunEvents)
	}
	if ci.DetailedEvents >= ci.SimulatedEvents {
		t.Errorf("DetailedEvents %d not below SimulatedEvents %d (functional warmup missing?)", ci.DetailedEvents, ci.SimulatedEvents)
	}
	for _, w := range ci.Windows {
		if len(w.PerCore) != 4 || w.Instructions == 0 {
			t.Fatalf("malformed window %+v", w)
		}
	}
	// The echoed Run carries the defaulted spec.
	if res.Run.Sampling.Confidence != 0.95 || res.Run.Sampling.TargetRelCI != 0.03 {
		t.Errorf("echoed spec not defaulted: %+v", res.Run.Sampling)
	}
}

// TestExecuteSampledDeterministic pins bit-identical sampled Results for
// a fixed spec and seed — including the window list and the Converged
// outcome.
func TestExecuteSampledDeterministic(t *testing.T) {
	a, err := uc.Execute(sampleRun("data-serving", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	b, err := uc.Execute(sampleRun("data-serving", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("sampled runs diverged:\n%s\n%s", ja, jb)
	}
}

// TestFullRunJSONUntouched: with sampling off, a Result's JSON must carry
// neither the Sampling spec nor a CI block — byte-identical output to the
// pre-sampling schema, which is also what keeps the golden wall's
// committed file valid.
func TestFullRunJSONUntouched(t *testing.T) {
	r := sampleRun("web-search", uc.DesignUnison)
	r.Sampling = uc.SampleSpec{}
	res, err := uc.Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI != nil {
		t.Fatal("full run carries a CI")
	}
	b, _ := json.Marshal(res)
	for _, field := range []string{"Sampling", "\"CI\""} {
		if strings.Contains(string(b), field) {
			t.Errorf("full-run JSON contains %s:\n%s", field, b)
		}
	}
}

// TestSampledEarlyStop: no sampled run stops early. Whatever its target,
// a run measures every window its budget fits and simulates every core
// through the last window's end, and Converged reports the final interval
// against the target: false with no target or a target that interval
// misses, true with a lax one. The target changes nothing else.
func TestSampledEarlyStop(t *testing.T) {
	base := sampleRun("web-search", uc.DesignNone)
	fit, warm := base.Sampling.Windows(base.AccessesPerCore)
	spec := base.Sampling
	end := (fit-1)*(spec.IntervalEvents+spec.GapEvents) + spec.IntervalEvents
	var first []byte
	for i, tc := range []struct {
		target    float64
		converged bool
	}{
		{-1, false},
		{0.01, false},
		{0.5, true},
	} {
		r := base
		r.Sampling.TargetRelCI = tc.target
		res, err := uc.Execute(r)
		if err != nil {
			t.Fatal(err)
		}
		ci := res.CI
		if ci.Converged != tc.converged {
			t.Errorf("target %v: Converged = %v, want %v (%v ± %v)", tc.target, ci.Converged, tc.converged, ci.UIPC, ci.HalfWidth)
		}
		if len(ci.Windows) != fit {
			t.Errorf("target %v: measured %d windows, want all %d", tc.target, len(ci.Windows), fit)
		}
		if want := uint64(warm+end) * uint64(r.Cores); ci.SimulatedEvents != want {
			t.Errorf("target %v: simulated %d events, want (warmup %d + last window's end %d) × %d cores = %d",
				tc.target, ci.SimulatedEvents, warm, end, r.Cores, want)
		}
		res.Run.Sampling.TargetRelCI, res.CI.Converged = 0, false
		b, _ := json.Marshal(res)
		if i == 0 {
			first = b
		} else if string(b) != string(first) {
			t.Errorf("target %v: the Result differs beyond the target and Converged:\n%s\n%s", tc.target, first, b)
		}
	}
}

// TestSampledWindowsMatchTelemetryEpochs: sampled windows and telemetry
// epochs are the same recorder epochs. Tiled windows of E events with no
// target, over a measured region that is a multiple of E, must equal a
// telemetry run's E-event epochs bit for bit, and the two Results may
// differ only in UIPC (the sampled estimate, which tiling makes the region
// value).
func TestSampledWindowsMatchTelemetryEpochs(t *testing.T) {
	const epoch = 1_000
	r := uc.Run{
		Workload:        "web-search",
		Design:          uc.DesignUnison,
		Capacity:        256 << 20,
		Cores:           4,
		AccessesPerCore: 30_000, // default warmup 2/3: a 10k-event measured region
		Seed:            3,
	}
	observed := r
	observed.Telemetry = uc.TelemetrySpec{EpochEvents: epoch}
	tel, err := uc.Execute(observed)
	if err != nil {
		t.Fatal(err)
	}
	sampled := r
	sampled.Sampling = uc.SampleSpec{IntervalEvents: epoch, GapEvents: -1, TargetRelCI: -1}
	smp, err := uc.Execute(sampled)
	if err != nil {
		t.Fatal(err)
	}

	windows, epochs := smp.CI.Windows, tel.Timeline.Epochs
	if len(windows) != 10 || len(epochs) != len(windows) {
		t.Fatalf("%d windows and %d epochs, want 10 of each", len(windows), len(epochs))
	}
	for i, w := range windows {
		e := epochs[i]
		perCore := make([]uc.CoreWindowStat, len(e.PerCore))
		for c, d := range e.PerCore {
			perCore[c] = uc.CoreWindowStat{Instructions: d.Instructions, Cycles: d.Cycles}
		}
		want := uc.WindowStat{UIPC: e.UIPC, Instructions: e.Instructions, Cycles: e.Cycles, PerCore: perCore}
		if !reflect.DeepEqual(w, want) {
			t.Errorf("window %d differs from epoch %d:\nwindow %+v\nepoch  %+v", i, i, w, want)
		}
	}
	if diff := smp.UIPC - tel.UIPC; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("tiled sampled UIPC %v, full-run UIPC %v", smp.UIPC, tel.UIPC)
	}
	smp.Results.UIPC = tel.Results.UIPC
	a, _ := json.Marshal(smp.Results)
	b, _ := json.Marshal(tel.Results)
	if string(a) != string(b) {
		t.Errorf("sampled and observed Results differ beyond UIPC:\nsampled  %s\nobserved %s", a, b)
	}
}

// TestSpeedupManySampled: a sampled plan point's speedup is the ratio of
// the two windowed estimates, and worker count leaves results
// bit-identical.
func TestSpeedupManySampled(t *testing.T) {
	points := []uc.Run{
		sampleRun("web-search", uc.DesignUnison),
		sampleRun("web-search", uc.DesignAlloy),
	}
	serial, err := uc.SpeedupMany(uc.Plan{Points: points, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := uc.SpeedupMany(uc.Plan{Points: points, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sampled sweep results depend on worker count")
	}
	for i, r := range serial {
		if r.Design.CI == nil || r.Baseline.CI == nil {
			t.Fatalf("point %d: design or baseline did not sample", i)
		}
		if r.Speedup != r.Design.UIPC/r.Baseline.UIPC {
			t.Errorf("point %d: speedup %v, want Design.UIPC/Baseline.UIPC = %v", i, r.Speedup, r.Design.UIPC/r.Baseline.UIPC)
		}
	}
}
