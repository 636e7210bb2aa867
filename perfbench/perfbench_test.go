package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/sim"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	if _, ok := percentile(samples(999), 99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(samples(1000), 99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(samples(19), 50); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
	if v, ok := percentile(samples(20), 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v (ok %v), want 10 with 10 samples beyond", v, ok)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// layerMapping is one per-layer row's entry in layers.json.
type layerMapping struct {
	Layer string   `json:"layer"`
	Moves string   `json:"moves"`
	On    []string `json:"on"`
}

// layersFile is layers.json's shape: the rows of BENCHMARK.json's
// per_layer, and the extra rows only some workloads report.
type layersFile struct {
	Workloads map[string]struct {
		Why      string   `json:"why"`
		Request  string   `json:"request"`
		Stresses []string `json:"stresses"`
		Bypasses []string `json:"bypasses"`
	} `json:"workloads"`
	PerLayer map[string]layerMapping `json:"per_layer"`
	Extra    map[string]layerMapping `json:"extra"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestMetricNamesValid(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	var l layersFile
	readJSON(t, "layers.json", &l)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: invalid unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		use(w.Name, "")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
		if _, ok := l.Workloads[w.Name]; !ok {
			t.Errorf("layers.json does not describe workload %q", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, max 200", w.Name, len(w.Why))
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(b.Workloads), len(workloads))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		use(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	var declared []string
	for _, m := range b.PerLayer {
		use(m.Name, m.Unit)
		declared = append(declared, m.Name)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	checkMapping := func(n string, m layerMapping) {
		if m.Layer == "" || m.Moves == "" || len(m.On) == 0 {
			t.Errorf("layers.json %s: layer, moves and on are all required", n)
		}
		for _, w := range m.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layers.json %s: unknown workload %q", n, w)
			}
		}
	}
	var mapped []string
	for n, m := range l.PerLayer {
		mapped = append(mapped, n)
		checkMapping(n, m)
		if len(m.On) != len(workloads) {
			t.Errorf("layers.json %s: a listed per-layer row must be measured on every workload, got %v", n, m.On)
		}
	}
	slices.Sort(declared)
	slices.Sort(mapped)
	if !slices.Equal(declared, mapped) {
		t.Errorf("per-layer metrics in BENCHMARK.json and layers.json differ:\n%v\n%v", declared, mapped)
	}
	for n, m := range l.Extra {
		checkMapping(n, m)
		use(strings.ReplaceAll(n, "<d>", "unison"), "")
	}
}

func TestResultLineCarriesExactlyTheListedMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want, err := manifestMetrics("../BENCHMARK.json", traced)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]metric{"unlisted": {Value: 1, Unit: "count"}}
		for n, u := range want {
			got[n] = metric{Value: 2, Unit: u}
		}
		reported, rest, err := splitMetrics(got, want)
		if err != nil || len(reported) != len(want) || len(rest) != 1 {
			t.Fatalf("traced %v: %d reported, %d extra, err %v; want %d, 1, nil", traced, len(reported), len(rest), err, len(want))
		}
		for n, u := range want {
			delete(got, n)
			if _, _, err := splitMetrics(got, want); err == nil || !strings.Contains(err.Error(), n) {
				t.Errorf("traced %v: missing %s not reported (err %v)", traced, n, err)
			}
			got[n] = metric{Value: math.NaN(), Unit: u}
			if _, _, err := splitMetrics(got, want); err == nil {
				t.Errorf("traced %v: NaN %s accepted", traced, n)
			}
			got[n] = metric{Value: 2, Unit: u}
		}
	}
}

func TestWrongResultCountsAsFailed(t *testing.T) {
	res := make([]uc.SpeedupResult, 3)
	for i := range res {
		res[i] = uc.SpeedupResult{
			Speedup: 1.5 + float64(i),
			Design: uc.Result{
				Results: sim.Results{UIPC: 2 + float64(i)},
				Run:     uc.Run{Workload: "web-search", Design: uc.DesignUnison},
			},
		}
	}
	want := fig7Reference(res)
	rep := newReport()
	checkFig7(rep, res, want)
	if rep.attempted != 3 || rep.failed != 0 {
		t.Fatalf("matching sweep: attempted %d failed %d, want 3 and 0", rep.attempted, rep.failed)
	}
	res[1].Speedup += 1e-12 // one ulp-scale injected error
	checkFig7(rep, res, want)
	if rep.attempted != 6 || rep.failed != 1 {
		t.Errorf("one wrong point: attempted %d failed %d, want 6 and 1", rep.attempted, rep.failed)
	}

	plain := uc.Result{Results: sim.Results{UIPC: 3, Instructions: 100}}
	ref := replayRef{Plain: resultDigest(plain)}
	rep = newReport()
	checkReplay(rep, "plain", uc.DesignUnison, plain, plain, ref)
	checkReplay(rep, "telemetry", uc.DesignUnison, plain, plain, ref)
	wrong := plain
	wrong.Instructions++
	checkReplay(rep, "segments", uc.DesignUnison, wrong, plain, ref)
	checkReplay(rep, "plain", uc.DesignUnison, wrong, wrong, ref)
	if rep.attempted != 4 || rep.failed != 2 {
		t.Errorf("replay checks: attempted %d failed %d, want 4 and 2", rep.attempted, rep.failed)
	}
}

func TestHistogramDeltas(t *testing.T) {
	before := []map[string]float64{
		{`h_sum{route="/a"}`: 1, `h_count{route="/a"}`: 2, "h_sum": 5, "h_count": 5},
		{},
	}
	after := []map[string]float64{
		{`h_sum{route="/a"}`: 1.5, `h_count{route="/a"}`: 4, "h_sum": 6, "h_count": 7, `h_bucket{le="1"}`: 99},
		{`h_sum{route="/b"}`: 2, `h_count{route="/b"}`: 1},
	}
	if sum, count := histDelta(before, after, "h", ""); sum != 3.5 || count != 5 {
		t.Errorf("all series: sum %v count %v, want 3.5 and 5", sum, count)
	}
	if sum, count := histDelta(before, after, "h", `route="/a"`); sum != 0.5 || count != 2 {
		t.Errorf("route /a: sum %v count %v, want 0.5 and 2", sum, count)
	}
}

func TestHistogramDeltasAcrossMembers(t *testing.T) {
	fake := func(r uc.Run) (uc.Result, error) {
		return uc.Result{Results: sim.Results{UIPC: float64(r.Seed)}, Run: r}, nil
	}
	c, err := startCluster(t.TempDir(), serviceMembers, fake)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	ctx := context.Background()
	before, err := c.scrape(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(c.urls[0])
	const runs = 12
	for i := 0; i < runs; i++ {
		if _, err := cl.Execute(ctx, serviceRun(i, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.scrape(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every distinct run simulates exactly once, on its owner.
	if _, count := histDelta(before, after, "unisonserved_execute_seconds", ""); count != runs {
		t.Errorf("execute observations across members = %v, want %d", count, runs)
	}
	// Each run is one POST at member 0 plus one forwarded POST at its owner
	// when member 0 does not own it.
	proxied := counterDelta(before, after, "unisonserved_proxied_total")
	if proxied == 0 || proxied == runs {
		t.Fatalf("proxied = %v of %d runs; the ring should spread keys over the members", proxied, runs)
	}
	if _, count := histDelta(before, after, "unisonserved_http_request_seconds", `route="/v1/runs"`); count != runs+proxied {
		t.Errorf("POST /v1/runs observations = %v, want %v", count, runs+proxied)
	}
	if _, count := histDelta(before, after, "unisonserved_store_write_seconds", ""); count != runs {
		t.Errorf("store writes across members = %v, want %d", count, runs)
	}
}
