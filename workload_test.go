package unisoncache_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	uc "unisoncache"
)

// kvProfile is a small, valid custom workload for registry tests.
func kvProfile() uc.Profile {
	return uc.Profile{
		WorkingSetBytes: 512 << 20,
		ZipfTheta:       0.8,
		PCs:             64,
		PCZipfTheta:     0.5,
		DensityMin:      0.2,
		DensityMax:      0.6,
		SingletonPCFrac: 0.1,
		PatternNoise:    0.03,
		AffinityClasses: 64,
		AffinityEscape:  0.02,
		WriteFrac:       0.25,
		GapMean:         12,
		RepeatMean:      0.8,
	}
}

func TestRegisterWorkloadExecutes(t *testing.T) {
	// The registered name wins over a conflicting Profile.Name.
	named := kvProfile()
	named.Name = "something-else"
	if err := uc.RegisterWorkload("test-kv", named); err != nil {
		t.Fatal(err)
	}
	res := run(t, uc.Run{Workload: "test-kv", Design: uc.DesignUnison, Capacity: 128 << 20, Cores: 4})
	if res.UIPC <= 0 || res.Design.Reads == 0 {
		t.Errorf("registered workload produced no work: %+v", res.Results)
	}
	if res.Run.Workload != "test-kv" {
		t.Errorf("Run echo = %q", res.Run.Workload)
	}
	want := kvProfile()
	want.Name = "test-kv"
	got, ok := uc.WorkloadProfile("test-kv")
	if !ok || got != want {
		t.Errorf("WorkloadProfile round trip: %+v (ok=%v)", got, ok)
	}
	found := false
	for _, w := range uc.Workloads() {
		if w == "test-kv" {
			found = true
		}
	}
	if !found {
		t.Errorf("Workloads() = %v does not list test-kv", uc.Workloads())
	}
}

func TestRegisterWorkloadRejectsBadInput(t *testing.T) {
	if err := uc.RegisterWorkload("", kvProfile()); err == nil {
		t.Error("empty name accepted")
	}
	if err := uc.RegisterWorkload("web-search", kvProfile()); err == nil {
		t.Error("built-in shadowing accepted")
	}
	bad := kvProfile()
	bad.DensityMin = 0
	if err := uc.RegisterWorkload("test-bad", bad); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, ok := uc.WorkloadProfile("test-bad"); ok {
		t.Error("rejected profile was registered anyway")
	}
}

func TestWorkloadsListingStable(t *testing.T) {
	builtins := []string{"data-analytics", "data-serving", "software-testing", "web-search", "web-serving", "tpch"}
	a, b := uc.Workloads(), uc.Workloads()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("consecutive Workloads() calls differ: %v vs %v", a, b)
	}
	if len(a) < len(builtins) {
		t.Fatalf("Workloads() = %v lost built-ins", a)
	}
	if !reflect.DeepEqual(a[:len(builtins)], builtins) {
		t.Errorf("built-ins not a stable prefix: %v", a[:len(builtins)])
	}
	if !reflect.DeepEqual(uc.Designs(), uc.Designs()) {
		t.Error("consecutive Designs() calls differ")
	}
}

// TestRegisteredWorkloadSpeedupMemoized pins the baseline-memoization
// contract for registry workloads: two design points over the same
// registered workload must share one bit-identical baseline.
func TestRegisteredWorkloadSpeedupMemoized(t *testing.T) {
	if err := uc.RegisterWorkload("test-kv-sweep", kvProfile()); err != nil {
		t.Fatal(err)
	}
	base := uc.Run{Workload: "test-kv-sweep", Design: uc.DesignUnison, Capacity: 128 << 20,
		Cores: 4, AccessesPerCore: 20_000}
	alloy := base
	alloy.Design = uc.DesignAlloy
	res, err := uc.SpeedupMany(uc.Plan{Points: []uc.Run{base, alloy}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Speedup <= 0 {
			t.Errorf("point %d: speedup %v", i, r.Speedup)
		}
		if r.Baseline.Design.Name != "none" {
			t.Errorf("point %d: baseline design %q", i, r.Baseline.Design.Name)
		}
	}
	if !reflect.DeepEqual(res[0].Baseline.Results, res[1].Baseline.Results) {
		t.Error("the two design points did not share one memoized baseline")
	}
}

// TestRecordReplayBitIdentical is the acceptance criterion: a run replayed
// from a .utrace capture yields Results bit-identical to the live
// synthetic-stream run.
func TestRecordReplayBitIdentical(t *testing.T) {
	r := uc.Run{Workload: "web-serving", Design: uc.DesignUnison, Capacity: 256 << 20,
		Cores: 4, Seed: 3, AccessesPerCore: 30_000}
	live, err := uc.Execute(r)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := uc.RecordTrace(r, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.utrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	replay := r
	replay.TracePath = path
	replayed, err := uc.Execute(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Results, replayed.Results) {
		t.Errorf("replay diverged from live run:\nlive   %+v\nreplay %+v", live.Results, replayed.Results)
	}

	// A replay run may leave the stream-shaped fields zero: the header
	// fills them in.
	bare := uc.Run{Design: uc.DesignUnison, Capacity: 256 << 20, TracePath: path}
	bareRes, err := uc.Execute(bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Results, bareRes.Results) {
		t.Error("header-defaulted replay diverged from live run")
	}
	if bareRes.Run.Workload != "web-serving" || bareRes.Run.Seed != 3 ||
		bareRes.Run.Cores != 4 || bareRes.Run.AccessesPerCore != 30_000 {
		t.Errorf("replay Run echo not filled from header: %+v", bareRes.Run)
	}
}

func TestReplayRejectsHeaderMismatch(t *testing.T) {
	r := uc.Run{Workload: "web-search", Design: uc.DesignUnison, Capacity: 128 << 20,
		Cores: 2, Seed: 9, AccessesPerCore: 2_000}
	var buf bytes.Buffer
	if err := uc.RecordTrace(r, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.utrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*uc.Run)
	}{
		{"wrong workload", func(r *uc.Run) { r.Workload = "tpch" }},
		{"wrong seed", func(r *uc.Run) { r.Seed = 8 }},
		{"wrong cores", func(r *uc.Run) { r.Cores = 4 }},
		{"wrong scale divisor", func(r *uc.Run) { r.ScaleDivisor = 64 }},
		{"wrong capacity changes auto divisor", func(r *uc.Run) { r.Capacity = 8 << 30 }},
		{"too many accesses", func(r *uc.Run) { r.AccessesPerCore = 5_000 }},
	}
	for _, c := range cases {
		bad := r
		bad.TracePath = path
		c.mut(&bad)
		if _, err := uc.Execute(bad); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	// A prefix replay is allowed, and still deterministic.
	prefix := r
	prefix.TracePath = path
	prefix.AccessesPerCore = 1_000
	if _, err := uc.Execute(prefix); err != nil {
		t.Errorf("prefix replay rejected: %v", err)
	}
}

// TestExecuteRejectsRunSizes: a negative AccessesPerCore, more cores than
// a capture header may hold, or a simulated capacity (Capacity /
// ScaleDivisor) beyond 8 GB fails at Execute with an error naming the
// fields — live and replayed, plain, with telemetry and segmented. So does
// a telemetry or sampled run whose recorder would hold too many
// boundaries or boundary x core rows, once the run's length is known.
func TestExecuteRejectsRunSizes(t *testing.T) {
	live := uc.Run{Workload: "web-search", Design: uc.DesignUnison, Capacity: 128 << 20,
		Cores: 2, Seed: 9, AccessesPerCore: 2_000}
	var buf bytes.Buffer
	if err := uc.RecordTrace(live, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.utrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	replay := uc.Run{Design: uc.DesignUnison, Capacity: 128 << 20, TracePath: path}

	modes := map[string]func(*uc.Run){
		"plain":     func(*uc.Run) {},
		"telemetry": func(r *uc.Run) { r.Telemetry = uc.DefaultTelemetrySpec() },
		"segmented": func(r *uc.Run) { r.Segments = 2 },
	}
	sizes := map[string]func(*uc.Run){
		"AccessesPerCore":       func(r *uc.Run) { r.AccessesPerCore = -5 },
		"Cores":                 func(r *uc.Run) { r.Cores = 5000 },
		"Capacity/ScaleDivisor": func(r *uc.Run) { r.Design, r.Capacity, r.ScaleDivisor = uc.DesignAlloy, 1<<40, 1 },
	}
	for source, base := range map[string]uc.Run{"live": live, "replay": replay} {
		for mode, setMode := range modes {
			for field, setSize := range sizes {
				r := base
				setMode(&r)
				setSize(&r)
				if _, err := uc.Execute(r); err == nil || !strings.Contains(err.Error(), field) {
					t.Errorf("%s %s run with a bad %s: err = %v, want an error naming it", source, mode, field, err)
				}
			}
		}
	}
	// The bound admits the paper's largest design point at full scale:
	// this run passes it and fails only at its unknown design, before any
	// cache is built.
	edge := live
	edge.Design, edge.Capacity, edge.ScaleDivisor = "bogus", 8<<30, 1
	if _, err := uc.Execute(edge); err == nil || !strings.Contains(err.Error(), `unknown design "bogus"`) {
		t.Errorf("8 GB at ScaleDivisor 1: err = %v, want only the unknown design rejected", err)
	}

	// The recorder bound: one-event epochs or windows over a long live
	// run, over a 64-core run (too many rows, not boundaries), and over a
	// replay whose length comes from its capture's header.
	long := uc.Run{Workload: "web-search", Design: uc.DesignNone, Capacity: 128 << 20,
		Cores: 1, Seed: 9, AccessesPerCore: 200_000}
	buf.Reset()
	if err := uc.RecordTrace(long, &buf); err != nil {
		t.Fatal(err)
	}
	longPath := filepath.Join(t.TempDir(), "long.utrace")
	if err := os.WriteFile(longPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	recorders := map[string]func(*uc.Run){
		"Telemetry.EpochEvents":   func(r *uc.Run) { r.Telemetry = uc.TelemetrySpec{EpochEvents: 1} },
		"Sampling.IntervalEvents": func(r *uc.Run) { r.Sampling = uc.SampleSpec{WarmupFrac: -1, IntervalEvents: 1, GapEvents: -1} },
	}
	for source, base := range map[string]uc.Run{
		"live":         {Workload: "web-search", Capacity: 128 << 20, AccessesPerCore: 3_000_000_000},
		"live 64-core": {Workload: "web-search", Capacity: 128 << 20, Cores: 64, AccessesPerCore: 60_000},
		"replay":       {Design: uc.DesignNone, Capacity: 128 << 20, TracePath: longPath},
	} {
		for field, set := range recorders {
			r := base
			set(&r)
			if _, err := uc.Execute(r); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s run with %s too small for its length: err = %v, want an error naming it", source, field, err)
			}
		}
	}
	// The bound admits 65,536 epochs: one-event epochs over a replayed
	// prefix whose measured third holds 65,334 events run.
	within := uc.Run{Design: uc.DesignNone, Capacity: 128 << 20, TracePath: longPath,
		AccessesPerCore: 196_000, Telemetry: uc.TelemetrySpec{EpochEvents: 1}}
	if res, err := uc.Execute(within); err != nil {
		t.Errorf("65,334 one-event epochs: %v", err)
	} else if n := len(res.Timeline.Epochs); n != 65_334 {
		t.Errorf("65,334 one-event epochs recorded %d", n)
	}
}

func TestReplayPathErrors(t *testing.T) {
	missing := uc.Run{Design: uc.DesignUnison, Capacity: 128 << 20,
		TracePath: filepath.Join(t.TempDir(), "absent.utrace")}
	if _, err := uc.Execute(missing); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := uc.RecordTrace(missing, &bytes.Buffer{}); err == nil {
		t.Error("RecordTrace with TracePath set accepted")
	}
	if err := uc.RecordTrace(uc.Run{Workload: "nope", Capacity: 128 << 20}, &bytes.Buffer{}); err == nil {
		t.Error("RecordTrace with unknown workload accepted")
	}
	if err := uc.RecordTrace(uc.Run{Workload: "web-search", Cores: -2, Capacity: 128 << 20}, &bytes.Buffer{}); err == nil {
		t.Error("RecordTrace with negative cores accepted")
	}
	if _, err := uc.Execute(uc.Run{Workload: "web-search", Design: uc.DesignUnison, Cores: -2,
		Capacity: 128 << 20, AccessesPerCore: 100}); err == nil {
		t.Error("Execute with negative cores accepted")
	}
}
