package unisoncache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unisoncache/internal/canonjson"
)

// The canonical decoders (readRun inside Run.UnmarshalJSON, readResult
// inside Result.UnmarshalJSON) are held to encoding/json, their fallback
// and their oracle: on any input, fast path and oracle agree on whether
// there is an error, and when there is none they decode the same value,
// into a fresh target or into one a prior decode filled.

// strictRun is the Run oracle: encoding/json's strict decoder and the
// design check, as Run.UnmarshalJSON applies them to non-canonical input.
func strictRun(data []byte) (Run, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a runJSON
	if err := dec.Decode(&a); err != nil {
		return Run{}, fmt.Errorf("unisoncache: decoding Run: %w", err)
	}
	if a.Design != "" && !knownDesign(a.Design) {
		return Run{}, fmt.Errorf("unisoncache: unknown design %q (have %v)", a.Design, Designs())
	}
	return Run(a), nil
}

// checkRunDecode decodes data into a Run that prior filled, with
// Run.UnmarshalJSON and with the oracle, and fails t unless the two agree
// on the value and on the error text.
func checkRunDecode(t *testing.T, prior, data []byte) {
	t.Helper()
	want, _ := strictRun(prior)
	got := want
	err := got.UnmarshalJSON(data)
	if v, oerr := strictRun(data); oerr == nil {
		want = v
	} else if err == nil || err.Error() != oerr.Error() {
		t.Fatalf("decoding %q: error %v, oracle %v", data, err, oerr)
	}
	if err != nil && got != want || err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q: error %v\n got %+v\nwant %+v", data, err, got, want)
	}
}

// checkResultDecode decodes data into a Result that prior filled, with
// Result.UnmarshalJSON and with encoding/json, and fails t unless both
// fail or both decode the same value.
func checkResultDecode(t *testing.T, prior, data []byte) {
	t.Helper()
	var got, want Result
	json.Unmarshal(prior, (*resultFields)(&got))
	json.Unmarshal(prior, (*resultFields)(&want))
	err := got.UnmarshalJSON(data)
	oerr := json.Unmarshal(data, (*resultFields)(&want))
	if (err == nil) != (oerr == nil) {
		t.Fatalf("decoding %q: error %v, oracle %v", data, err, oerr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q:\n got %+v\nwant %+v", data, got, want)
	}
}

// goldenResults returns a golden wall's Results (testdata/golden.json for
// plain runs, golden_sampled.json for sampled ones, CI set) as the service
// writes them: compact, in key order.
func goldenResults(tb testing.TB, path string) [][]byte {
	tb.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, k := range slices.Sorted(maps.Keys(m)) {
		var buf bytes.Buffer
		if err := json.Compact(&buf, m[k]); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

const (
	goldenPlain   = "testdata/golden.json"
	goldenSampled = "testdata/golden_sampled.json"
)

// telemetryResult is a small telemetry run's Result (Timeline set).
func telemetryResult(tb testing.TB) []byte {
	tb.Helper()
	res, err := Execute(Run{Workload: "web-search", Design: DesignUnison, Capacity: 256 << 20, Cores: 2,
		AccessesPerCore: 4_000, Telemetry: TelemetrySpec{EpochEvents: 1_000}})
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// runSeeds are Run encodings: canonical ones and each fallback case.
var runSeeds = []string{
	`{"Workload":"web-search","Design":"unison","Capacity":268435456,"AccessesPerCore":20000,"Seed":1,"Cores":4,"ScaleDivisor":16,"TracePath":"","Segments":0,"UnisonWays":4,"DisableWayPrediction":false,"SerializeTagData":false,"DisableSingleton":false,"FCWays":32}`,
	`{"Workload":"tpch","Design":"footprint","Capacity":8589934592,"Seed":7,"FCWays":16,"ScaleDivisor":-1,"Segments":4}`,
	`{"TracePath":"capture.utrace","Design":"ideal","DisableWayPrediction":true,"SerializeTagData":true,"DisableSingleton":true}`,
	`{"Workload":"web-search","Sampling":{"IntervalEvents":500,"GapEvents":1500,"MinIntervals":4}}`,
	`{"Workload":"web-search","Telemetry":{"EpochEvents":5000}}`,
	`{"Design":"l4-cache"}`,
	`{"Capasity":1024}`,
	`{"Capacity":"big"}`,
	"{\n  \"Workload\": \"web-search\",\n  \"Cores\": 2\n}",
	`{"Workload":"web-search","Workload":"tpch","Cores":2,"Cores":-0}`,
	`{"workload":"web-search"}`,
	`{"W\u006frkload":"web-search","Design":"unis\u006fn"}`,
	`{"Capacity":1E3}`, `{"Capacity":-1}`, `{"Cores":9223372036854775808}`,
	`{} trailing`, `{},`, `{"Cores":1,}`, `null`, `[]`, ``,
}

func FuzzRunDecode(f *testing.F) {
	for i, s := range runSeeds {
		f.Add([]byte(nil), []byte(s))
		f.Add([]byte(runSeeds[(i+1)%len(runSeeds)]), []byte(s))
	}
	f.Fuzz(checkRunDecode)
}

func FuzzResultDecode(f *testing.F) {
	seeds := slices.Concat(goldenResults(f, goldenPlain), goldenResults(f, goldenSampled), [][]byte{telemetryResult(f)})
	for i, s := range seeds {
		f.Add([]byte(nil), s)
		f.Add(seeds[(i+1)%len(seeds)], s)
	}
	f.Fuzz(checkResultDecode)
}

// TestWireDecodeNonCanonical: valid input the canonical readers do not
// take — indentation, escapes, case-folded and duplicate keys, exponent
// and negative-zero floats, null and partial ratios, sampled and
// telemetry blocks — decodes exactly as encoding/json decodes it, into a
// fresh target and into one a golden Result filled.
func TestWireDecodeNonCanonical(t *testing.T) {
	// web-search/unison: every ratio but MP set.
	plain := string(goldenResults(t, goldenPlain)[12])
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(plain), "", "  "); err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) string {
		if !strings.Contains(plain, old) {
			t.Fatalf("golden Result holds no %s", old)
		}
		return strings.Replace(plain, old, new, 1)
	}
	tail := func(extra string) string { return plain[:len(plain)-1] + extra + "}" }
	results := []string{
		indented.String(),
		edit(`"UIPC"`, `"\u0055IPC"`),
		edit(`"Name":"unison"`, `"Name":"uni\u0073on"`),
		edit(`"Cycles"`, `"cycles"`),
		edit(`"Workload":"web-search"`, `"workload":"web-search"`),
		edit(`"L1HitRate":`, `"L1HitRate":1E3,"L1HitRate":`),
		edit(`"OffchipBytesPerKI":`, `"OffchipBytesPerKI":-0,"X":`),
		tail(`,"L1HitRate":-0`),
		tail(`,"UIPC":2,"Design":{"Reads":7,"FP":{"Num":1},"FO":null,"MP":{"Den":3}},"Run":{"Cores":3}`),
		tail(`,"Design":{"FP":null,"FP":{"Den":5}}`),
		tail(`,"Stacked":{"Reads":1,"Reads":2},"L2":{"Hits":9}`),
		tail(`,"CI":null,"Timeline":null`),
		tail(`,"Instructions":1.5`),
		tail(`,"Run":{"Design":"l4-cache"}`),
		tail(`,"Run":null`),
		string(goldenResults(t, goldenSampled)[0]),
		string(telemetryResult(t)),
	}
	for i, data := range results {
		for _, prior := range []string{"", plain} {
			t.Run(fmt.Sprintf("result-%d", i), func(t *testing.T) { checkResultDecode(t, []byte(prior), []byte(data)) })
		}
	}
	for i, data := range runSeeds {
		for _, prior := range []string{"", runSeeds[0]} {
			t.Run(fmt.Sprintf("run-%d", i), func(t *testing.T) { checkRunDecode(t, []byte(prior), []byte(data)) })
		}
	}
}

// TestWireDecodeCanonicalPath: what Marshal writes for a plain Result and
// a plain Run is taken by the canonical readers, not by their fallback.
func TestWireDecodeCanonicalPath(t *testing.T) {
	for _, data := range goldenResults(t, goldenPlain) {
		cr := canonjson.NewReader(data)
		if readResult(&cr, new(Result)); !cr.End() {
			t.Errorf("canonical reader refused a golden Result: %s", data)
		}
	}
	for _, data := range append([]string{runSeeds[0], runSeeds[1], runSeeds[2]}, mustMarshal(t, Run{})) {
		cr := canonjson.NewReader([]byte(data))
		if readRun(&cr); !cr.End() {
			t.Errorf("canonical reader refused a Run: %s", data)
		}
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// BenchmarkDecodeResult decodes a golden Result with Result.UnmarshalJSON
// and with encoding/json alone (whose Run still takes its own canonical
// path).
func BenchmarkDecodeResult(b *testing.B) {
	data := goldenResults(b, goldenPlain)[12] // web-search/unison
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var res Result
			if err := res.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var res Result
			if err := json.Unmarshal(data, (*resultFields)(&res)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeRun decodes a canonical Run with Run.UnmarshalJSON and
// with the strict encoding/json decoder it falls back to.
func BenchmarkDecodeRun(b *testing.B) {
	data := []byte(runSeeds[0])
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var r Run
			if err := r.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := strictRun(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
