package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/store"
)

// expoSample is one parsed exposition sample line.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// expoFamily is one declared metric family and its samples in file order.
type expoFamily struct {
	typ     string
	samples []expoSample
}

var expoNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// splitSample breaks a sample line into name, raw label block (may be
// empty) and value text. Label values may themselves contain '{' and
// '}' (route patterns do), so the label block ends at the LAST "} "
// separator, not the first '}'.
func splitSample(line string) (name, labels, value string, ok bool) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		var found bool
		name, value, found = strings.Cut(line, " ")
		return name, "", value, found
	}
	name = line[:brace]
	end := strings.LastIndex(line, "} ")
	if end < brace {
		return "", "", "", false
	}
	return name, line[brace+1 : end], line[end+2:], true
}

// splitLabels breaks a raw label block into k="v" pairs. Values are
// quoted strings, so commas inside quotes do not split.
func splitLabels(raw string) []string {
	var out []string
	start, depth := 0, false
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '"':
			if i == 0 || raw[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, raw[start:i])
				start = i + 1
			}
		}
	}
	if start < len(raw) {
		out = append(out, raw[start:])
	}
	return out
}

// parseExposition parses Prometheus text format strictly enough to
// enforce the invariants the tests care about: every sample line must
// parse, every sample must belong to a previously declared family, and
// families come back with their samples grouped.
func parseExposition(t *testing.T, text string) map[string]*expoFamily {
	t.Helper()
	families := make(map[string]*expoFamily)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := parts[2], parts[3]
			if _, dup := families[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			families[name] = &expoFamily{typ: typ}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rawLabels, rawValue, ok := splitSample(line)
		if !ok || !expoNameRe.MatchString(name) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		v, err := strconv.ParseFloat(rawValue, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		labels := make(map[string]string)
		for _, pair := range splitLabels(rawLabels) {
			k, raw, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("sample %q: bad label %q", line, pair)
			}
			val, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("sample %q: label %q not quoted: %v", line, pair, err)
			}
			labels[k] = val
		}
		fam := familyFor(families, name)
		if fam == nil {
			t.Fatalf("sample %q has no preceding # TYPE declaration", line)
		}
		fam.samples = append(fam.samples, expoSample{name: name, labels: labels, value: v})
	}
	return families
}

// familyFor resolves a sample name to its family: exact for counters and
// gauges, suffix-stripped for histogram series.
func familyFor(families map[string]*expoFamily, sample string) *expoFamily {
	if f, ok := families[sample]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base == sample {
			continue
		}
		if f, ok := families[base]; ok && f.typ == "histogram" {
			return f
		}
	}
	return nil
}

// seriesKey identifies one histogram series: the label set minus le.
func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// checkHistogram enforces the histogram contract on one family: every
// series has monotone nondecreasing cumulative buckets ending in +Inf,
// and the +Inf bucket, _count and _sum all agree.
func checkHistogram(t *testing.T, name string, fam *expoFamily) {
	t.Helper()
	type series struct {
		buckets []expoSample // in rendered order
		count   *expoSample
		sum     *expoSample
	}
	byKey := make(map[string]*series)
	get := func(labels map[string]string) *series {
		k := seriesKey(labels)
		if byKey[k] == nil {
			byKey[k] = &series{}
		}
		return byKey[k]
	}
	for i := range fam.samples {
		s := &fam.samples[i]
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			get(s.labels).buckets = append(get(s.labels).buckets, *s)
		case strings.HasSuffix(s.name, "_count"):
			get(s.labels).count = s
		case strings.HasSuffix(s.name, "_sum"):
			get(s.labels).sum = s
		default:
			t.Errorf("%s: stray histogram sample %s", name, s.name)
		}
	}
	if len(byKey) == 0 {
		t.Errorf("%s: histogram family with no series", name)
	}
	for key, se := range byKey {
		if se.count == nil || se.sum == nil {
			t.Errorf("%s{%s}: missing _count or _sum", name, key)
			continue
		}
		if len(se.buckets) == 0 {
			t.Errorf("%s{%s}: no buckets", name, key)
			continue
		}
		prevLe := -1.0
		prev := -1.0
		for _, b := range se.buckets {
			leStr := b.labels["le"]
			le, err := strconv.ParseFloat(leStr, 64) // ParseFloat accepts "+Inf"
			if err != nil {
				t.Errorf("%s{%s}: bad le %q", name, key, leStr)
				continue
			}
			if le <= prevLe {
				t.Errorf("%s{%s}: le %v out of order after %v", name, key, le, prevLe)
			}
			if b.value < prev {
				t.Errorf("%s{%s}: cumulative bucket decreased: %v after %v", name, key, b.value, prev)
			}
			prevLe, prev = le, b.value
		}
		last := se.buckets[len(se.buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("%s{%s}: last bucket le=%q, want +Inf", name, key, last.labels["le"])
		}
		if last.value != se.count.value {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", name, key, last.value, se.count.value)
		}
		if se.count.value > 0 && se.sum.value < 0 {
			t.Errorf("%s{%s}: negative sum %v", name, key, se.sum.value)
		}
	}
}

// TestServeMetricsExposition: after real traffic — runs, a sweep, a
// results lookup, health probes — /metrics is well-formed end to end:
// every family declared exactly once with at least one sample, every
// sample under a declared family, histograms obeying the cumulative
// contract, and the expected observability families present.
func TestServeMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Execute: fakeExecute, Store: st})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	ctx := context.Background()
	run := smallRun(uc.DesignUnison)
	if _, err := cl.Execute(ctx, run); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute(ctx, run); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := cl.ExecuteMany(ctx, []uc.Run{smallRun(uc.DesignAlloy), smallRun(uc.DesignLohHill)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families := parseExposition(t, string(body))

	for name, fam := range families {
		if len(fam.samples) == 0 {
			// A declared family with no samples is only legal if nothing
			// renders it — the daemon never emits bare headers.
			t.Errorf("family %s declared without samples", name)
		}
		if fam.typ == "histogram" {
			checkHistogram(t, name, fam)
		}
	}

	for _, want := range []string{
		"unisonserved_cache_hits_total",
		"unisonserved_engine_events_total",
		"unisonserved_engine_events_per_second",
		"unisonserved_replay_progress_ratio",
		"unisonserved_build_info",
		"unisonserved_http_request_seconds",
		"unisonserved_queue_wait_seconds",
		"unisonserved_execute_seconds",
		"unisonserved_store_read_seconds",
		"unisonserved_store_write_seconds",
	} {
		if families[want] == nil {
			t.Errorf("missing family %s", want)
		}
	}

	// The executions above flowed through the meter: three distinct
	// simulations, each events = accesses × cores of the defaulted run.
	ef := families["unisonserved_engine_events_total"]
	if ef != nil && ef.samples[0].value <= 0 {
		t.Errorf("engine events = %v after 3 simulations", ef.samples[0].value)
	}
	// Per-route http series exist for the routes actually exercised.
	hf := families["unisonserved_http_request_seconds"]
	routes := make(map[string]bool)
	if hf != nil {
		for _, sm := range hf.samples {
			routes[sm.labels["route"]] = true
		}
	}
	for _, r := range []string{"/v1/runs", "/v1/sweeps", "/healthz", "/v1/jobs/{id}/events"} {
		if !routes[r] {
			t.Errorf("no http latency series for route %s (have %v)", r, routes)
		}
	}

	// Build info carries non-empty provenance labels.
	bi := families["unisonserved_build_info"]
	if bi != nil {
		lbl := bi.samples[0].labels
		if lbl["go_version"] == "" || lbl["version"] == "" || lbl["cores_available"] == "" {
			t.Errorf("build_info labels incomplete: %v", lbl)
		}
	}
}

// TestServeEngineMeterCountsSampledEvents: a sampled run never replays
// past its last window, so the engine meter counts the events it
// simulated (Result.CI.SimulatedEvents), not the full trace
// length of the run.
func TestServeEngineMeterCountsSampledEvents(t *testing.T) {
	s := New(Config{Execute: func(r uc.Run) (uc.Result, error) {
		res, err := fakeExecute(r)
		full := uint64(r.AccessesPerCore) * uint64(r.Cores)
		res.CI = &uc.SampleStats{SimulatedEvents: full / 3, FullRunEvents: full}
		return res, err
	}})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	ctx := context.Background()
	run := smallRun(uc.DesignUnison)
	run.Sampling = uc.DefaultSampleSpec()
	res, err := cl.Execute(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI == nil || res.CI.SimulatedEvents == 0 || res.CI.SimulatedEvents >= res.CI.FullRunEvents {
		t.Fatalf("fake sampled result CI = %+v, want 0 < SimulatedEvents < FullRunEvents", res.CI)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m["unisonserved_engine_events_total"], float64(res.CI.SimulatedEvents); got != want {
		t.Errorf("unisonserved_engine_events_total = %v after one sampled run, want its SimulatedEvents %v", got, want)
	}
}
