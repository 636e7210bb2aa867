package client

import (
	"time"

	uc "unisoncache"
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
// integer nanoseconds.
type Span struct {
	Stage string        `json:"stage"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

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
