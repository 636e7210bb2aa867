package client

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/internal/canonjson"
)

// checkJobDecode decodes data into a Job that prior filled, with decodeJob
// and with json.Unmarshal, its fallback and oracle, and fails t unless both
// fail or both decode the same value.
func checkJobDecode(t *testing.T, prior, data []byte) {
	t.Helper()
	var got, want Job
	json.Unmarshal(prior, &got)
	json.Unmarshal(prior, &want)
	err := decodeJob(data, &got)
	oerr := json.Unmarshal(data, &want)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("decoding %q: error %v, oracle %v", data, err, oerr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q:\n got %+v\nwant %+v", data, got, want)
	}
}

// jobSeeds returns job snapshots as the daemon writes them: a run answered
// from the cache, with a golden Result, and a failed run, whose quoted
// error text holds escapes and so takes the fallback.
func jobSeeds(tb testing.TB) []string {
	tb.Helper()
	blob, err := os.ReadFile("../testdata/golden.json")
	if err != nil {
		tb.Fatal(err)
	}
	var golden map[string]*uc.Result
	if err := json.Unmarshal(blob, &golden); err != nil {
		tb.Fatal(err)
	}
	spans := []Span{{Stage: "received"}, {Stage: "cache-hit", Start: 2100, Dur: 5300}, {Stage: "done", Start: 9800}}
	var out []string
	for _, j := range []Job{
		{ID: "j17", Kind: "run", State: StateDone, Done: 1, Total: 1, CacheHits: 1, RequestID: "5f0c2a9e41d3b7c8",
			Spans: spans, Result: golden["web-search/unison"]},
		{ID: "j18", Kind: "run", State: StateFailed, Total: 1, Error: "unisoncache: unknown workload \"x\"",
			RequestID: "5f0c2a9e41d3b7c9", Spans: spans[:1]},
	} {
		blob, err := json.Marshal(j)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(blob))
	}
	return out
}

func FuzzJobDecode(f *testing.F) {
	seeds := append(jobSeeds(f),
		`{"id":"j1","kind":"run","state":"queued","done":0,"total":1,"cache_hits":0}`,
		`{"id":"j2","state":"done","result":null,"spans":[],"results":[{"UIPC":1}]}`,
		`{"ID":"j3","spans":[{"stage":"received","start_ns":1,"dur_ns":-2},{"Stage":"x"}],"spans":null}`,
		`{"id":"j\u0034","result":{"UIPC":1E3,"Design":{"FP":null}},"result":{"Cycles":5}}`,
		`{"id":"j5","speedups":[{"Speedup":1.5}],"done":-0,"total":1.0}`,
	)
	for i, s := range seeds {
		f.Add([]byte(nil), []byte(s))
		f.Add([]byte(seeds[(i+1)%len(seeds)]), []byte(s))
	}
	f.Fuzz(checkJobDecode)
}

// TestJobDecodeCanonicalPath: a cached run's snapshot is taken by the
// canonical reader, result included.
func TestJobDecodeCanonicalPath(t *testing.T) {
	data := jobSeeds(t)[0]
	cr := canonjson.NewReader([]byte(data))
	if readJob(&cr, new(Job)); !cr.End() {
		t.Errorf("canonical reader refused a job snapshot: %s", data)
	}
}

// TestJobDecodeInPlace: spans decode into the elements already there, as
// encoding/json decodes a slice, up to its capacity; a present result
// decodes into the Result already there.
func TestJobDecodeInPlace(t *testing.T) {
	cached := jobSeeds(t)[0]
	for i, data := range []string{
		`{"spans":[{"stage":"a"},{"dur_ns":7}]}`,
		`{"spans":[{"start_ns":1},{"start_ns":2},{"start_ns":3},{"start_ns":4},{"start_ns":5},{"start_ns":6}]}`,
		`{"spans":[]}`,
		`{"result":{"UIPC":2},"id":"j9"}`,
		strings.Replace(cached, `"spans":[`, `"spans":[{},`, 1),
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkJobDecode(t, []byte(cached), []byte(data))
			var long Job
			long.Spans = make([]Span, 1, 8)
			long.Spans[:8][3] = Span{Stage: "stale", Dur: time.Second}
			want := long
			want.Spans = append([]Span(nil), long.Spans[:8]...)[:1]
			if err := decodeJob([]byte(data), &long); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(data), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(long, want) {
				t.Errorf("decoding %s past len:\n got %+v\nwant %+v", data, long, want)
			}
		})
	}
}

// BenchmarkDecodeJob decodes a cached run's job snapshot with decodeJob
// and with json.Unmarshal (whose Result still takes its canonical path).
func BenchmarkDecodeJob(b *testing.B) {
	data := []byte(jobSeeds(b)[0])
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var j Job
			if err := decodeJob(data, &j); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var j Job
			if err := json.Unmarshal(data, &j); err != nil {
				b.Fatal(err)
			}
		}
	})
}
