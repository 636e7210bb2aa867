package serve

import (
	"context"
	"sync"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/obs"
)

// job is one submitted run's server-side state. All mutation goes
// through the setter methods, which notify event subscribers; snapshots
// are what every HTTP response returns.
type job struct {
	id        string
	requestID string
	cancel    context.CancelFunc
	// tl is the job's span timeline (received → queued → execution
	// stage → terminal), internally synchronized.
	tl *obs.Timeline

	mu        sync.Mutex
	state     string
	done      int
	cacheHits int
	errText   string
	result    *uc.Result
	// epochs is the job's telemetry timeline: appended live while a
	// telemetry-enabled run simulates here, or backfilled from the
	// finished result (cache, store, peer or proxy hits) just before the
	// job turns terminal. GET /v1/jobs/{id}/telemetry streams it.
	epochs []uc.TimelineEpoch
	subs   map[chan struct{}]struct{}
}

func newJob(id, requestID string, cancel context.CancelFunc) *job {
	j := &job{
		id:        id,
		requestID: requestID,
		state:     client.StateQueued,
		cancel:    cancel,
		tl:        obs.NewTimeline(),
		subs:      make(map[chan struct{}]struct{}),
	}
	j.tl.Mark("received")
	return j
}

// snapshot renders the job as its wire form: a run job, whose one
// execution is its total.
func (j *job) snapshot() client.Job {
	spans := j.tl.Spans()
	j.mu.Lock()
	defer j.mu.Unlock()
	return client.Job{
		ID:        j.id,
		Kind:      "run",
		State:     j.state,
		Done:      j.done,
		Total:     1,
		CacheHits: j.cacheHits,
		Error:     j.errText,
		RequestID: j.requestID,
		Spans:     spans,
		Result:    j.result,
	}
}

// addEpochs appends telemetry epochs to the job record and wakes the
// telemetry stream's subscribers. Safe from the executing goroutine
// (live emission) and from the finish path (terminal backfill).
func (j *job) addEpochs(es ...uc.TimelineEpoch) {
	if len(es) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epochs = append(j.epochs, es...)
	j.notifyLocked()
}

// epochCount returns how many epochs the job has recorded so far.
func (j *job) epochCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.epochs)
}

// epochsFrom returns a copy of the epochs recorded past sent together
// with whether the job is terminal — one atomic read, so a telemetry
// stream that observes the terminal state has necessarily observed every
// epoch too (the finish paths backfill before marking terminal).
func (j *job) epochsFrom(sent int) ([]uc.TimelineEpoch, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if sent > len(j.epochs) {
		sent = len(j.epochs)
	}
	tail := make([]uc.TimelineEpoch, len(j.epochs)-sent)
	copy(tail, j.epochs[sent:])
	return tail, j.terminalLocked()
}

// subscribe registers for change notifications (coalescing: one pending
// tick at most). The returned unsubscribe is idempotent.
func (j *job) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// notifyLocked ticks every subscriber; callers hold j.mu.
func (j *job) notifyLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // a tick is already pending; the subscriber will resnapshot
		}
	}
}

// terminalLocked reports whether the job already finished; callers hold
// j.mu. The predicate is the wire type's, so server and clients can
// never disagree about what terminal means.
func (j *job) terminalLocked() bool {
	return client.Job{State: j.state}.Terminal()
}

// setRunning moves queued → running (a no-op once terminal, e.g. after a
// queued-time cancellation).
func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	j.state = client.StateRunning
	j.notifyLocked()
}

// recordExecution records the job's completed run execution: its span,
// named by the stage that satisfied it and covering [start, now], and its
// count (hit: it cost nothing here).
func (j *job) recordExecution(stage string, start time.Time, hit bool) {
	j.tl.Observe(stage, start)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	if hit {
		j.cacheHits++
	}
	j.notifyLocked()
}

// markCanceledIfQueued flips a still-queued job straight to canceled, so
// canceling queued work takes effect immediately instead of when a
// worker finally reaches it; running jobs transition through finish once
// they observe their canceled context.
func (j *job) markCanceledIfQueued() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != client.StateQueued {
		return
	}
	j.state = client.StateCanceled
	j.errText = "canceled while queued"
	j.tl.Mark(client.StateCanceled)
	j.notifyLocked()
}

// finish records the terminal state: canceled if the job's context was
// canceled, failed on err, done (with result) otherwise. The terminal
// state is also the timeline's closing span, so the job record reads
// received → queued → stage → done end to end.
func (j *job) finish(ctx context.Context, err error, result *uc.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	switch {
	case ctx.Err() != nil:
		j.state = client.StateCanceled
		j.errText = context.Cause(ctx).Error()
	case err != nil:
		j.state = client.StateFailed
		j.errText = err.Error()
	default:
		j.state = client.StateDone
		j.result = result
	}
	j.tl.Mark(j.state)
	j.notifyLocked()
}
