// Package obs is the dependency-free observability substrate shared by
// the daemon (internal/serve), the cluster paths, and the client:
// request IDs with context propagation, span timelines with monotonic
// per-stage durations, fixed-bucket Prometheus-text histograms, an
// engine throughput meter, and log/slog construction helpers.
//
// The package deliberately has no third-party dependencies and nothing
// here is allowed to touch the replay hot path's steady state: IDs are
// minted at the HTTP edge, spans are recorded at job state transitions,
// and histograms observe whole-operation durations — never per-event
// work inside the simulator.
package obs

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// RequestIDHeader carries a submission's request ID end to end: minted
// at the edge (client or daemon middleware, whoever sees the request
// first), echoed on every response, and forwarded on proxy one-hops and
// peer cache fills so one ID names the whole distributed request.
const RequestIDHeader = "X-Unison-Request-Id"

// NewRequestID mints a 16-hex-character request ID. IDs only need to be
// unique enough to correlate log lines and job records across a small
// cluster, so a 64-bit random value is plenty; crypto strength is not a
// goal.
func NewRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// Span is one stage of a request's timeline: the stage name, its start
// offset from the timeline's origin, and its duration. Both are
// monotonic-clock intervals (time.Since), so spans order and measure
// correctly even across wall-clock adjustments. Durations marshal as
// integer nanoseconds.
type Span struct {
	Stage string        `json:"stage"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Timeline is a thread-safe span recorder for one request. The zero
// value is not usable; construct with NewTimeline, which pins the
// origin the span offsets are measured from.
type Timeline struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

// NewTimeline starts a timeline whose origin is now.
func NewTimeline() *Timeline {
	return &Timeline{origin: time.Now()}
}

// Mark records an instantaneous (zero-duration) span at now — state
// transitions like "received" or "done".
func (t *Timeline) Mark(stage string) {
	now := time.Now()
	t.add(Span{Stage: stage, Start: now.Sub(t.origin)})
}

// Observe records a span covering [start, now] — a stage whose caller
// captured its own start time (queue wait, one execution, a peer hop).
func (t *Timeline) Observe(stage string, start time.Time) {
	now := time.Now()
	t.add(Span{Stage: stage, Start: start.Sub(t.origin), Dur: now.Sub(start)})
}

func (t *Timeline) add(s Span) {
	if s.Start < 0 {
		s.Start = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans in record order.
func (t *Timeline) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
