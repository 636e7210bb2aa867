package serve

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeRunRequest fuzzes the service's request decoders: no input
// may panic them, and any input they accept must survive a marshal →
// decode round trip unchanged (acceptance is self-consistent — what the
// daemon echoes back is resubmittable and means the same thing).
func FuzzDecodeRunRequest(f *testing.F) {
	seeds := []string{
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
	for _, s := range seeds {
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
