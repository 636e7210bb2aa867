package client

import (
	"encoding/json"
	"time"

	uc "unisoncache"
	"unisoncache/internal/canonjson"
	"unisoncache/internal/obs"
)

// This file is the service wire format, shared verbatim by the daemon
// (internal/serve decodes requests and marshals responses with exactly
// these types) and by this client. Simulation payloads — Run, SampleSpec,
// Result, SpeedupResult — ride along as their public unisoncache JSON
// forms, whose field names are stable and whose float64 values survive
// the round trip bit-exactly (Go emits the shortest representation that
// parses back to the same bits), which is what lets a sweep executed
// through the service reproduce the in-process CSVs byte for byte.

// RunRequest is the POST /v1/runs payload: one simulation.
type RunRequest struct {
	Run uc.Run `json:"run"`
}

// Sweep execution modes.
const (
	// ModeExecute runs every point through Execute (ExecuteMany).
	ModeExecute = "execute"
	// ModeSpeedup adds the memoized no-DRAM-cache baselines and returns
	// per-point speedups (SpeedupMany).
	ModeSpeedup = "speedup"
)

// SweepRequest is the POST /v1/sweeps payload: an ordered point list plus
// the execution mode. Results come back in point order, bit-identical to
// calling ExecuteMany / SpeedupMany in-process.
type SweepRequest struct {
	Points []uc.Run `json:"points"`
	// Mode is ModeExecute (the default when empty) or ModeSpeedup.
	Mode string `json:"mode,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is a submitted request's lifecycle record, returned by the submit
// endpoints and GET /v1/jobs/{id}. Exactly one of Result, Results or
// Speedups is populated once State is StateDone, matching the request
// kind and mode.
type Job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "run" or "sweep"
	State string `json:"state"`
	// Done counts run executions performed so far (cached or fresh);
	// Total is the planned upper bound — in-plan memoization can finish a
	// job below it. Treat the pair as a progress hint; State is the
	// source of truth.
	Done  int `json:"done"`
	Total int `json:"total"`
	// CacheHits counts the job's executions served straight from the
	// daemon's content-addressed result cache.
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`

	// RequestID is the X-Unison-Request-Id the submission carried (minted
	// at whichever edge first saw the request); Spans is the job's stage
	// timeline — received, queued, how each execution was satisfied
	// (simulated, cache-hit, store-hit, peer-fill, proxied, coalesced),
	// and the terminal state — with offsets relative to receipt.
	RequestID string `json:"request_id,omitempty"`
	Spans     []Span `json:"spans,omitempty"`
	// SpansDropped counts timeline spans the daemon's per-job cap
	// discarded — nonzero means Spans is a truncated trace, not a short
	// one (a 100k-point sweep records far more executions than the cap
	// retains).
	SpansDropped int `json:"spans_dropped,omitempty"`

	Result   *uc.Result         `json:"result,omitempty"`
	Results  []uc.Result        `json:"results,omitempty"`
	Speedups []uc.SpeedupResult `json:"speedups,omitempty"`
}

// Terminal reports whether the job has finished (done, failed or
// canceled).
func (j Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCanceled
}

// decodeJob decodes a job snapshot into j exactly as json.Unmarshal does.
// Canonical input, as the daemon writes a run's snapshot, is read in one
// pass (readJob), its Result through Result.UnmarshalJSON; anything else
// goes, untouched, to json.Unmarshal.
func decodeJob(data []byte, j *Job) error {
	cr := canonjson.NewReader(data)
	v := *j
	if readJob(&cr, &v); cr.End() {
		*j = v
		return nil
	}
	return json.Unmarshal(data, j)
}

// readJob reads a Job object on the canonical path, in place as
// encoding/json decodes one. A sweep's results or speedups, an unknown or
// case-folded key and a Result that fails to decode fail the reader.
func readJob(cr *canonjson.Reader, j *Job) {
	cr.Begin('{')
	for cr.Next('}') {
		switch string(cr.Key()) {
		case "id":
			j.ID = cr.Str()
		case "kind":
			j.Kind = cr.Str()
		case "state":
			j.State = cr.Str()
		case "done":
			j.Done = cr.Int()
		case "total":
			j.Total = cr.Int()
		case "cache_hits":
			j.CacheHits = cr.Int()
		case "error":
			j.Error = cr.Str()
		case "request_id":
			j.RequestID = cr.Str()
		case "spans":
			j.Spans = readSpans(cr, j.Spans)
		case "spans_dropped":
			j.SpansDropped = cr.Int()
		case "result":
			if cr.Null() {
				j.Result = nil
				continue
			}
			if j.Result == nil {
				j.Result = new(uc.Result)
			}
			if j.Result.UnmarshalJSON(cr.Object()) != nil {
				cr.Fail()
			}
		default:
			cr.Fail()
		}
	}
}

// readSpans reads a span array into s as encoding/json decodes a slice:
// null is nil, [] is empty, and each element decodes into the one already
// at its index, up to s's capacity.
func readSpans(cr *canonjson.Reader, s []Span) []Span {
	if cr.Null() {
		return nil
	}
	cr.Begin('[')
	n := 0
	for ; cr.Next(']'); n++ {
		if n == cap(s) {
			// Room for a cached run's whole timeline in one allocation.
			s = append(s[:n], make([]Span, 4)...)
		}
		s = s[:n+1]
		sp := &s[n]
		cr.Begin('{')
		for cr.Next('}') {
			switch string(cr.Key()) {
			case "stage":
				sp.Stage = cr.Str()
			case "start_ns":
				sp.Start = time.Duration(cr.Int64())
			case "dur_ns":
				sp.Dur = time.Duration(cr.Int64())
			default:
				cr.Fail()
			}
		}
	}
	if n == 0 {
		return []Span{}
	}
	return s[:n]
}

// Event is one NDJSON line of the GET /v1/jobs/{id}/events progress
// stream. The stream opens with the job's current state, emits a line per
// state change or completed execution, and closes after the terminal
// line.
type Event struct {
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`

	RequestID string `json:"request_id,omitempty"`
	Spans     []Span `json:"spans,omitempty"`
}

// Span is one stage of a job's timeline: its name, when it started
// relative to the request being received, and how long it took (0 for
// instantaneous markers like the terminal state). Durations marshal as
// integer nanoseconds. The daemon records and serves the same type.
type Span = obs.Span

// Health is the payload of GET /healthz (readiness: 503 + Ready=false
// while draining) and GET /livez (liveness: always 200).
type Health struct {
	Status string `json:"status"` // "ok", or "draining" during shutdown
	// Ready reports whether the daemon accepts new submissions.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

// errorBody is every non-2xx response's payload.
type errorBody struct {
	Error string `json:"error"`
}
