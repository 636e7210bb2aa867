package unisoncache_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	uc "unisoncache"
)

// The golden determinism wall: testdata/golden.json freezes the complete
// Result — UIPC, miss taxonomy, predictor ratios, DRAM counters, everything
// the simulator measures — for a small fixed Run across all seven designs
// and two representative workloads. TestGolden compares byte-exact JSON, so
// any change to simulated behaviour, however small, fails loudly. This is
// the guard that lets hot-path rewrites prove "faster, not different":
// optimizations must land with this test passing against an unchanged file.
//
// Regenerate (only when behaviour is *meant* to change) with:
//
//	go test -run TestGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

const goldenPath = "testdata/golden.json"

// goldenRuns spans every design (the full switch in buildDesign) and two
// workloads chosen for contrast: web-search (scan footprints, near-perfect
// prediction) and data-analytics (singleton-heavy, noisy). Small core count
// and trace length keep the wall under a couple of seconds.
func goldenRuns() []uc.Run {
	var runs []uc.Run
	for _, w := range []string{"web-search", "data-analytics"} {
		for _, d := range uc.Designs() {
			runs = append(runs, uc.Run{
				Workload:        w,
				Design:          d,
				Capacity:        256 << 20,
				Cores:           4,
				AccessesPerCore: 20_000,
				Seed:            1,
			})
		}
	}
	return runs
}

// goldenKey names one run's entry in the golden file.
func goldenKey(r uc.Run) string { return fmt.Sprintf("%s/%s", r.Workload, r.Design) }

// encodeResult renders a Result to the canonical JSON stored in the golden
// file. Go's float encoding is the shortest round-trip representation, so
// byte equality of the JSON is bit equality of every float64.
func encodeResult(t *testing.T, res uc.Result) json.RawMessage {
	t.Helper()
	b, err := json.MarshalIndent(res, "    ", "  ")
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return b
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden wall replays 14 full simulations; skipped in -short")
	}
	runs := goldenRuns()
	got := make(map[string]json.RawMessage, len(runs))
	for _, r := range runs {
		res, err := uc.Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", goldenKey(r), err)
		}
		uc.CheckConservation(t, goldenKey(r), res)
		got[goldenKey(r)] = encodeResult(t, res)
	}

	if *updateGolden {
		writeGolden(t, runs, got)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (generate it with -update): %v", goldenPath, err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(want) != len(runs) {
		t.Errorf("golden file holds %d entries, expected %d", len(want), len(runs))
	}
	for _, r := range runs {
		key := goldenKey(r)
		t.Run(key, func(t *testing.T) {
			w, ok := want[key]
			if !ok {
				t.Fatalf("no golden entry for %s (regenerate with -update)", key)
			}
			if string(w) != string(got[key]) {
				t.Errorf("result diverged from golden (run with -update only if the change is intended)\ngolden: %s\n   got: %s",
					w, got[key])
			}
		})
	}
}

// The sampled golden wall: testdata/golden_sampled.json freezes complete
// sampled Results — the windowed UIPC estimate, the CI block with every
// per-window per-core sample, the Converged outcome and the event
// accounting — for a fixed SampleSpec across three designs and two
// workloads. Bit-exact JSON equality pins the whole sampled pipeline:
// schedule arithmetic, the no-barrier boundary snapshots, the ratio
// estimator, the t-quantiles and the convergence test.
const goldenSampledPath = "testdata/golden_sampled.json"

// goldenSampledRuns: unison + alloy + the no-cache baseline, so the wall
// also covers exactly the runs a sampled speedup pairs.
func goldenSampledRuns() []uc.Run {
	spec := uc.SampleSpec{IntervalEvents: 500, GapEvents: 500, MinIntervals: 4}
	var runs []uc.Run
	for _, w := range []string{"web-search", "data-analytics"} {
		for _, d := range []uc.DesignKind{uc.DesignUnison, uc.DesignAlloy, uc.DesignNone} {
			runs = append(runs, uc.Run{
				Workload:        w,
				Design:          d,
				Capacity:        256 << 20,
				Cores:           4,
				AccessesPerCore: 20_000,
				Seed:            1,
				Sampling:        spec,
			})
		}
	}
	return runs
}

func TestGoldenSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled golden wall replays 6 simulations; skipped in -short")
	}
	runs := goldenSampledRuns()
	got := make(map[string]json.RawMessage, len(runs))
	for _, r := range runs {
		res, err := uc.Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", goldenKey(r), err)
		}
		if res.CI == nil {
			t.Fatalf("%s: sampled run returned no CI", goldenKey(r))
		}
		uc.CheckConservation(t, goldenKey(r), res)
		got[goldenKey(r)] = encodeResult(t, res)
	}

	if *updateGolden {
		writeGoldenFile(t, goldenSampledPath, runs, got)
		return
	}

	data, err := os.ReadFile(goldenSampledPath)
	if err != nil {
		t.Fatalf("reading %s (generate it with -update): %v", goldenSampledPath, err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenSampledPath, err)
	}
	if len(want) != len(runs) {
		t.Errorf("golden file holds %d entries, expected %d", len(want), len(runs))
	}
	for _, r := range runs {
		key := goldenKey(r)
		t.Run(key, func(t *testing.T) {
			w, ok := want[key]
			if !ok {
				t.Fatalf("no golden entry for %s (regenerate with -update)", key)
			}
			if string(w) != string(got[key]) {
				t.Errorf("sampled result diverged from golden (run with -update only if the change is intended)\ngolden: %s\n   got: %s",
					w, got[key])
			}
		})
	}
}

// writeGolden rewrites the golden file with deterministic key order.
func writeGolden(t *testing.T, runs []uc.Run, got map[string]json.RawMessage) {
	t.Helper()
	writeGoldenFile(t, goldenPath, runs, got)
}

// writeGoldenFile writes one golden fixture with deterministic key order.
func writeGoldenFile(t *testing.T, goldenPath string, runs []uc.Run, got map[string]json.RawMessage) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, r := range runs {
		key := goldenKey(r)
		buf = append(buf, fmt.Sprintf("  %q: ", key)...)
		buf = append(buf, got[key]...)
		if i < len(runs)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", goldenPath, len(runs))
}
