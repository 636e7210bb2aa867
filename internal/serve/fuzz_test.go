package serve

import (
	"encoding/json"
	"fmt"
	"testing"

	"unisoncache/client"
)

// runRequestSeeds are the request decoders' fuzz seeds.
var runRequestSeeds = []string{
	`{"run":{"Workload":"web-search","Design":"unison","Capacity":1073741824}}`,
	`{"run":{"Workload":"tpch","Design":"alloy","Capacity":8589934592,"Seed":7,"Cores":16,"AccessesPerCore":400000}}`,
	`{"run":{"Workload":"data-serving","Design":"footprint","FCWays":16,"ScaleDivisor":-1}}`,
	`{"run":{"Workload":"web-search","Design":"unison","UnisonWays":32,"DisableWayPrediction":true,"SerializeTagData":true,"DisableSingleton":true}}`,
	`{"run":{"Workload":"media-streaming","Design":"unison","Sampling":{"IntervalEvents":1000,"GapEvents":3000,"MinIntervals":4,"Confidence":0.95,"TargetRelCI":0.03}}}`,
	`{"run":{"TracePath":"capture.utrace","Design":"ideal"}}`,
	`{"run":{"Workload":"no-such-workload"}}`,
	`{"run":{"Design":"no-such-design"}}`,
	`{"run":{"Capasity":1}}`,
	`{"run":{}}`,
	`{}`,
	`{"run":{"Workload":"web-search"}} trailing`,
	`[1,2,3]`,
	`null`,
	// Accepted nested specs, so the round trip covers them.
	`{"run":{"Workload":"web-search","Design":"unison","Sampling":{"WarmupFrac":0.5,"WarmupEvents":2000,"IntervalEvents":500,"GapEvents":1500,"MinIntervals":4,"MaxIntervals":16,"Confidence":0.9,"TargetRelCI":0.02}}}`,
	`{"run":{"Workload":"web-search","Design":"alloy","Telemetry":{"EpochEvents":5000}}}`,
	`{"points":[{"Workload":"web-search","Design":"unison"},{"Workload":"data-serving","Design":"footprint"}],"mode":"speedup"}`,
}

// FuzzDecodeRunRequest fuzzes the service's request decoders: no input
// may panic them, and any input they accept must survive a marshal →
// decode round trip unchanged (acceptance is self-consistent — what the
// daemon echoes back is resubmittable and means the same thing).
func FuzzDecodeRunRequest(f *testing.F) {
	for _, s := range runRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRunRequest(data)
		if err == nil {
			blob, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("accepted request does not re-marshal: %v", err)
			}
			req2, err := DecodeRunRequest(blob)
			if err != nil {
				t.Fatalf("round trip of accepted request rejected: %s: %v", blob, err)
			}
			if req.Run != req2.Run {
				t.Fatalf("round trip changed the run:\n was: %+v\n now: %+v", req.Run, req2.Run)
			}
		}
		// The sweep decoder shares the strict-decoding core; same
		// properties, minus struct comparability (a slice field).
		sreq, err := DecodeSweepRequest(data)
		if err == nil {
			blob, err := json.Marshal(sreq)
			if err != nil {
				t.Fatalf("accepted sweep does not re-marshal: %v", err)
			}
			if _, err := DecodeSweepRequest(blob); err != nil {
				t.Fatalf("round trip of accepted sweep rejected: %s: %v", blob, err)
			}
		}
	})
}

// strictRunRequest is the RunRequest oracle: the strict encoding/json
// decoder and the name check, as DecodeRunRequest applies them to
// non-canonical input.
func strictRunRequest(data []byte) (client.RunRequest, error) {
	var req client.RunRequest
	err := decodeStrict(data, &req)
	if err == nil {
		err = req.Run.ValidateNames()
	}
	if err != nil {
		return client.RunRequest{}, fmt.Errorf("run request: %w", err)
	}
	return req, nil
}

// FuzzRunRequestDecode holds DecodeRunRequest, whose canonical reader
// takes what the stock client sends, to its encoding/json oracle: the same
// request, or the same error text.
func FuzzRunRequestDecode(f *testing.F) {
	for _, s := range append(runRequestSeeds,
		"{\n \"run\": {\"Workload\": \"web-search\", \"Cores\": 2}\n}",
		`{"RUN":{"Workload":"web-search"}}`,
		`{"run":{"Workload":"web-search"},"run":{"Design":"alloy","Seed":1E3}}`,
		`{"run":{"Design":"unis\u006fn"}}`,
		`{"run":null}`, `{"run":{"Cores":-0}}`, `{"run":{}},`,
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRunRequest(data)
		want, oerr := strictRunRequest(data)
		if fmt.Sprint(err) != fmt.Sprint(oerr) || got != want {
			t.Fatalf("decoding %q:\n got %+v, %v\nwant %+v, %v", data, got, err, want, oerr)
		}
	})
}

// TestRunRequestCanonicalPath: what the stock client sends is taken by the
// canonical reader.
func TestRunRequestCanonicalPath(t *testing.T) {
	for _, s := range runRequestSeeds[:4] {
		if _, ok := readRunRequest([]byte(s)); !ok {
			t.Errorf("canonical reader refused %s", s)
		}
	}
}

// BenchmarkDecodeRunRequest decodes the stock client's run request with
// DecodeRunRequest and with its encoding/json oracle.
func BenchmarkDecodeRunRequest(b *testing.B) {
	blob, err := json.Marshal(client.RunRequest{Run: smallRun("unison")})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (client.RunRequest, error)
	}{{"canonical", DecodeRunRequest}, {"encoding-json", strictRunRequest}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := c.decode(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
