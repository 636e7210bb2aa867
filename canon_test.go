package unisoncache

import "testing"

// The canonicalization wall: the service's content-addressed cache keys
// stand on runKey (in-plan memoization identity) and baselineRun
// (baseline collapse), so their algebra is pinned here.

// TestRunKeyIsDefaultedIdentity: runKey is the identity on defaulted
// runs, and defaulting collapses implicit and explicit defaults onto the
// same key — the property both the in-plan memoizer and RunKey rely on.
func TestRunKeyIsDefaultedIdentity(t *testing.T) {
	implicit := Run{Workload: "web-search", Design: DesignUnison, Capacity: 1 << 30}.withDefaults()
	explicit := Run{
		Workload: "web-search", Design: DesignUnison, Capacity: 1 << 30,
		AccessesPerCore: 400_000, Seed: 1, Cores: 16,
		UnisonWays: 4, FCWays: 32, ScaleDivisor: AutoScaleDivisor(1 << 30),
	}.withDefaults()
	if runKey(implicit) != runKey(explicit) {
		t.Errorf("implicit and explicit defaults key differently:\n%+v\n%+v", implicit, explicit)
	}
	if runKey(implicit) != implicit {
		t.Error("runKey is not the identity")
	}
	// Any stream- or design-shaping difference must change the key.
	for name, mod := range map[string]func(*Run){
		"workload":  func(r *Run) { r.Workload = "data-serving" },
		"design":    func(r *Run) { r.Design = DesignAlloy },
		"capacity":  func(r *Run) { r.Capacity = 2 << 30 },
		"seed":      func(r *Run) { r.Seed = 2 },
		"ways":      func(r *Run) { r.UnisonWays = 32 },
		"sampling":  func(r *Run) { r.Sampling = DefaultSampleSpec() },
		"telemetry": func(r *Run) { r.Telemetry = DefaultTelemetrySpec() },
	} {
		r := implicit
		mod(&r)
		if runKey(r.withDefaults()) == runKey(implicit) {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestBaselineRunCanonicalization: every design point over the same
// workload tuple collapses onto one baseline key, design-only knobs are
// all reset, and the workload-shaping fields survive untouched.
func TestBaselineRunCanonicalization(t *testing.T) {
	base := Run{Workload: "web-search", Capacity: 1 << 30, Seed: 3, Cores: 8,
		AccessesPerCore: 10_000}.withDefaults()

	variants := []func(*Run){
		func(r *Run) { r.Design = DesignUnison },
		func(r *Run) { r.Design = DesignAlloy },
		func(r *Run) { r.Design = DesignFootprint; r.FCWays = 16 },
		func(r *Run) { r.Design = DesignUnison; r.UnisonWays = 32 },
		func(r *Run) { r.Design = DesignUnison; r.DisableWayPrediction = true },
		func(r *Run) { r.Design = DesignUnison; r.SerializeTagData = true },
		func(r *Run) { r.Design = DesignUnison; r.DisableSingleton = true },
		func(r *Run) { r.Design = DesignUnison; r.Telemetry = DefaultTelemetrySpec() },
	}
	want := baselineRun(base)
	for i, mod := range variants {
		r := base
		mod(&r)
		got := baselineRun(r.withDefaults())
		if got != want {
			t.Errorf("variant %d: baseline %+v, want the shared %+v", i, got, want)
		}
	}

	if want.Design != DesignNone {
		t.Errorf("baseline design = %q, want %q", want.Design, DesignNone)
	}
	if want.UnisonWays != 4 || want.FCWays != 32 ||
		want.DisableWayPrediction || want.SerializeTagData || want.DisableSingleton {
		t.Errorf("baseline did not reset all design knobs: %+v", want)
	}
	if want.Workload != base.Workload || want.Seed != base.Seed || want.Cores != base.Cores ||
		want.Capacity != base.Capacity || want.AccessesPerCore != base.AccessesPerCore ||
		want.ScaleDivisor != base.ScaleDivisor {
		t.Errorf("baseline disturbed the workload tuple: %+v vs %+v", want, base)
	}
	if got := baselineRun(want); got != want {
		t.Errorf("baselineRun not idempotent: %+v", got)
	}

	// Sampling and trace replay are part of the tuple: a sampled design
	// point pairs with a sampled baseline, a replayed one with the same
	// capture.
	sampled := base
	sampled.Sampling = DefaultSampleSpec()
	if b := baselineRun(sampled.withDefaults()); b.Sampling != sampled.withDefaults().Sampling {
		t.Error("baseline dropped the sampling spec")
	}
	replay := base
	replay.TracePath = "some.utrace"
	if b := baselineRun(replay); b.TracePath != "some.utrace" {
		t.Error("baseline dropped the trace path")
	}
}
