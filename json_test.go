package unisoncache_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	uc "unisoncache"
)

// TestRunJSONRoundTrip: a fully-populated Run survives marshal →
// unmarshal unchanged (Run is comparable, so this is exact equality).
func TestRunJSONRoundTrip(t *testing.T) {
	r := uc.Run{
		Workload: "web-search", Design: uc.DesignUnison, Capacity: 1 << 30,
		AccessesPerCore: 123_456, Seed: 9, Cores: 8, ScaleDivisor: 64,
		TracePath:  "",
		Sampling:   uc.SampleSpec{IntervalEvents: 500, GapEvents: 1500, MinIntervals: 4, Confidence: 0.99, TargetRelCI: 0.02},
		UnisonWays: 32, DisableWayPrediction: true, SerializeTagData: true, DisableSingleton: true,
		FCWays: 16,
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got uc.Run
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
	if got != r {
		t.Errorf("round trip changed the run:\n was %+v\n now %+v", r, got)
	}
}

// TestRunJSONStableFieldNames: the wire names are the exported Go names
// — a rename would silently break every stored payload, so they are
// pinned, together with the key order of a telemetry stream's epoch.
func TestRunJSONStableFieldNames(t *testing.T) {
	blob, err := json.Marshal(uc.Run{Workload: "web-search", Sampling: uc.DefaultSampleSpec(), Telemetry: uc.DefaultTelemetrySpec()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`"Workload"`, `"Design"`, `"Capacity"`, `"AccessesPerCore"`, `"Seed"`, `"Cores"`,
		`"ScaleDivisor"`, `"TracePath"`, `"Sampling"`, `"Telemetry"`, `"UnisonWays"`, `"DisableWayPrediction"`,
		`"SerializeTagData"`, `"DisableSingleton"`, `"FCWays"`,
		// SampleSpec's nested names.
		`"WarmupFrac"`, `"WarmupEvents"`, `"IntervalEvents"`, `"GapEvents"`, `"MinIntervals"`, `"MaxIntervals"`,
		`"Confidence"`, `"TargetRelCI"`,
		// TelemetrySpec's nested name.
		`"EpochEvents"`,
	} {
		if !strings.Contains(string(blob), name) {
			t.Errorf("marshaled Run lost the stable field %s: %s", name, blob)
		}
	}

	// A TimelineEpoch is one NDJSON line of the telemetry stream: its keys
	// and their order are the wire format.
	blob, err = json.Marshal(uc.TimelineEpoch{PerCore: make([]uc.TimelineCore, 1)})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Index", "StartEvents", "EndEvents", "UIPC", "Instructions", "Cycles", "PerCore",
		"Reads", "ReadHits", "Writes", "WayPredHits", "WayPredLookups",
		"TriggerMisses", "UnderpredMisses", "SingletonSkips", "OffchipReadBytes", "OffchipWriteBytes",
		"StackedBusyCycles", "OffchipBusyCycles", "L2Accesses", "L2Hits",
	}
	if got := topLevelKeys(t, blob); !slices.Equal(got, want) {
		t.Errorf("TimelineEpoch keys changed:\n got %v\nwant %v", got, want)
	}
}

// topLevelKeys returns a JSON object's keys in encoded order.
func topLevelKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s is not a JSON object (%v)", blob, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestRunJSONRejectsUnknown: strict decoding — unknown JSON fields and
// unknown designs fail with errors that name the offender and the valid
// choices. Workload names are NOT checked at decode time (they live in a
// per-process registry, and responses echo server-side names); the
// request boundary checks them via ValidateNames.
func TestRunJSONRejectsUnknown(t *testing.T) {
	cases := []struct {
		name, payload, wantSub string
	}{
		{"misspelled field", `{"Workload":"web-search","Capasity":1024}`, "Capasity"},
		{"unknown design", `{"Workload":"web-search","Design":"l4-cache"}`, `unknown design "l4-cache"`},
		{"design typo lists designs", `{"Design":"unisom"}`, string(uc.DesignUnison)},
		{"wrong type", `{"Capacity":"big"}`, "Capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r uc.Run
			err := json.Unmarshal([]byte(tc.payload), &r)
			if err == nil {
				t.Fatalf("decoded %s without error", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Empty symbolic fields stay legal: sweeps and replays fill them in.
	var r uc.Run
	if err := json.Unmarshal([]byte(`{"Capacity":1024}`), &r); err != nil {
		t.Errorf("empty workload+design rejected: %v", err)
	}
	// A Run naming a workload this process never registered still
	// decodes — a service Result echoing a server-side workload must be
	// readable everywhere.
	if err := json.Unmarshal([]byte(`{"Workload":"only-on-the-server"}`), &r); err != nil {
		t.Errorf("foreign workload name rejected at decode time: %v", err)
	}
}

// TestRunValidateNames: the request-boundary check consults the live
// registry — built-ins and registered workloads pass, typos fail with
// the valid choices listed.
func TestRunValidateNames(t *testing.T) {
	if err := (uc.Run{Workload: "web-search", Design: uc.DesignUnison}).ValidateNames(); err != nil {
		t.Errorf("built-in rejected: %v", err)
	}
	if err := (uc.Run{}).ValidateNames(); err != nil {
		t.Errorf("zero names rejected: %v", err)
	}
	err := (uc.Run{Workload: "web-searhc"}).ValidateNames()
	if err == nil || !strings.Contains(err.Error(), `unknown workload "web-searhc"`) ||
		!strings.Contains(err.Error(), "web-search") {
		t.Errorf("typo error = %v, want the name and the valid list", err)
	}
	if err := (uc.Run{Design: "unicorn"}).ValidateNames(); err == nil {
		t.Error("unknown design accepted")
	}

	prof, _ := uc.WorkloadProfile("web-search")
	if err := uc.RegisterWorkload("json-test-workload", prof); err != nil {
		t.Fatal(err)
	}
	if err := (uc.Run{Workload: "json-test-workload"}).ValidateNames(); err != nil {
		t.Errorf("registered workload rejected: %v", err)
	}
}

// TestPlanJSON: the wire part of a Plan (Points, Jobs) marshals; the
// process-local policy (Progress writer, Executor hook) is excluded
// rather than breaking encoding.
func TestPlanJSON(t *testing.T) {
	p := uc.Plan{
		Points:   []uc.Run{{Workload: "web-search", Design: uc.DesignUnison}},
		Jobs:     3,
		Progress: &strings.Builder{},
		Executor: func(uc.Run) (uc.Result, error) { return uc.Result{}, nil },
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Plan with Progress+Executor does not marshal: %v", err)
	}
	var got uc.Plan
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Jobs != 3 || len(got.Points) != 1 || got.Points[0] != p.Points[0] {
		t.Errorf("Plan round trip = %+v", got)
	}
	if strings.Contains(string(blob), "Progress") || strings.Contains(string(blob), "Executor") {
		t.Errorf("process-local fields leaked into the wire form: %s", blob)
	}
}

// TestResultJSONRoundTrip: a real Result (sampled, so every optional
// block is populated) re-marshals byte-identically after a round trip —
// the property that makes service results CSV-equivalent to local ones.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := uc.Execute(uc.Run{
		Workload: "web-search", Design: uc.DesignUnison, Capacity: 256 << 20,
		Cores: 2, AccessesPerCore: 4_000,
		Sampling: uc.SampleSpec{IntervalEvents: 250, GapEvents: 250, MinIntervals: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back uc.Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Errorf("Result JSON not bit-stable across a round trip:\n was %s\n now %s", blob, blob2)
	}
}

// TestValidateNamesAllocs: the request boundary checks a built-in
// workload and design against tables built once, without allocating.
func TestValidateNamesAllocs(t *testing.T) {
	r := uc.Run{Workload: "web-search", Design: uc.DesignUnison}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.ValidateNames(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ValidateNames allocates %v times per call, want 0", n)
	}
}
