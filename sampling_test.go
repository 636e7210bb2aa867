package unisoncache_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	uc "unisoncache"
)

func TestParseSampleSpec(t *testing.T) {
	s, err := uc.ParseSampleSpec("interval=500,gap=250,conf=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enabled() {
		t.Fatal("parsed spec must be enabled")
	}
	if s.IntervalEvents != 500 || s.GapEvents != 250 || s.Confidence != 0.9 {
		t.Errorf("unexpected spec: %+v", s)
	}
	// "on" selects the defaults — and must come back enabled even though
	// the raw parse is the zero spec.
	on, err := uc.ParseSampleSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	if !on.Enabled() || on != uc.DefaultSampleSpec() {
		t.Errorf("ParseSampleSpec(on) = %+v, want DefaultSampleSpec", on)
	}
	if _, err := uc.ParseSampleSpec("bogus=1"); err == nil {
		t.Error("bad spec accepted")
	}
	if (uc.SampleSpec{}).Enabled() {
		t.Error("zero spec must be disabled")
	}
}

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
	if ci.Intervals() < 4 {
		t.Errorf("measured %d windows, want >= MinIntervals", ci.Intervals())
	}
	if ci.Confidence != 0.95 {
		t.Errorf("Confidence = %v, want the 0.95 default", ci.Confidence)
	}
	if ci.HalfWidth <= 0 {
		t.Errorf("HalfWidth = %v, want > 0 on a live workload", ci.HalfWidth)
	}
	wantDetailed := uint64(ci.Intervals()) * 500 * 4
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
// a fixed spec and seed — including the window list and the early-stop
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

// TestSampledEarlyStop: a loose target stops the run before the window
// budget and skips the unsimulated tail.
func TestSampledEarlyStop(t *testing.T) {
	r := sampleRun("web-search", uc.DesignNone)
	r.Sampling.TargetRelCI = 0.5
	res, err := uc.Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CI.Converged {
		t.Fatalf("±50%% target did not converge (relCI %v after %d windows)", res.CI.RelHalfWidth(), res.CI.Intervals())
	}
	if res.CI.Intervals() != 4 {
		t.Errorf("converged at %d windows, want MinIntervals=4", res.CI.Intervals())
	}
	if res.CI.SimulatedEvents >= res.CI.FullRunEvents {
		t.Errorf("early stop saved nothing: simulated %d of %d", res.CI.SimulatedEvents, res.CI.FullRunEvents)
	}
}

// TestSampledWindowsMatchTelemetryEpochs: sampled windows and telemetry
// epochs are the same recorder epochs. Tiled windows of E events with no
// early stop, over a measured region that is a multiple of E, must equal a
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

// TestSpeedupManySampledCI: sampled plan points come back with matched-
// pair CIs, and plan order and worker count leave results bit-identical.
func TestSpeedupManySampledCI(t *testing.T) {
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
		if r.CI == nil {
			t.Fatalf("point %d: no speedup CI", i)
		}
		if r.CI.Pairs == 0 || r.CI.HalfWidth <= 0 {
			t.Errorf("point %d: degenerate CI %+v", i, r.CI)
		}
		if r.CI.Confidence != 0.95 {
			t.Errorf("point %d: confidence %v", i, r.CI.Confidence)
		}
		// The matched-pair center and the ratio of sampled UIPCs must
		// agree to well within the interval.
		if diff := r.CI.Speedup - r.Speedup; diff > r.CI.HalfWidth || -diff > r.CI.HalfWidth {
			t.Errorf("point %d: pair center %v vs UIPC ratio %v beyond half-width %v",
				i, r.CI.Speedup, r.Speedup, r.CI.HalfWidth)
		}
	}
	// A full (unsampled) plan must not grow CIs.
	full := points
	for i := range full {
		full[i].Sampling = uc.SampleSpec{}
	}
	plain, err := uc.SpeedupMany(uc.Plan{Points: full, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].CI != nil {
		t.Error("unsampled plan points carry a speedup CI")
	}
}

// TestSweepSampledAcceptance is the PR's headline criterion on a reduced
// fig7 cell set: for every point, the sampled 95% CI must contain the
// full-run speedup, and the sampled runs must report at least 3x fewer
// detailed events than the full runs simulate.
func TestSweepSampledAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full and sampled sweeps; skipped in -short")
	}
	var points []uc.Run
	for _, w := range []string{"web-search", "data-serving"} {
		for _, d := range []uc.DesignKind{uc.DesignUnison, uc.DesignAlloy} {
			points = append(points, uc.Run{Workload: w, Design: d, Capacity: 1 << 30,
				AccessesPerCore: 80_000, Seed: 1})
		}
	}
	full, err := uc.SpeedupMany(uc.Plan{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := uc.SweepSampled(uc.Plan{Points: points}, uc.SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var detailed, fullEvents uint64
	for i, p := range points {
		want := full[i].Speedup
		ci := sampled[i].CI
		if ci == nil {
			t.Fatalf("%s/%s: no CI", p.Workload, p.Design)
		}
		if want < ci.Low() || want > ci.High() {
			t.Errorf("%s/%s: full-run speedup %.4f outside sampled CI [%.4f, %.4f]",
				p.Workload, p.Design, want, ci.Low(), ci.High())
		}
		d := sampled[i].Design.CI
		detailed += d.DetailedEvents
		fullEvents += d.FullRunEvents
	}
	if detailed*3 > fullEvents {
		t.Errorf("sampled sweep measured %d detailed events of %d full-run events — less than the required 3x reduction",
			detailed, fullEvents)
	}
}
