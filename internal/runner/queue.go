package runner

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueClosed is returned by Submit once Close or Drain has been
// called: the queue no longer accepts work (the daemon is shutting down).
var ErrQueueClosed = errors.New("runner: queue closed")

// Queue is the job-scheduling layer of the sweep engine: a long-lived
// bounded worker pool that accepts work over time instead of draining one
// fixed plan. Map and MapKeyed fan a known point list out and return; a
// Queue is what a daemon schedules *jobs* on — each job one run, which a
// client's Map/MapKeyed may have sent as one point of its plan.
//
// Jobs run in submission order (FIFO) on a fixed number of workers.
// Cancellation is cooperative and two-level: every job carries a
// context, and the worker hands it to the job function unexamined — a
// job canceled while still queued gets to observe ctx.Err() itself and
// record whatever terminal state its owner expects, rather than silently
// vanishing from the queue.
type Queue struct {
	// OnStart, when non-nil, is called on the worker goroutine each time
	// it picks a job up, with how long the job sat pending — the queue-
	// wait observation the daemon's latency histograms want, measured by
	// the component that actually owns the wait. Set it before the first
	// Submit; it must not block.
	OnStart func(waited time.Duration)

	mu      sync.Mutex
	cond    *sync.Cond // signals: work queued, or closed
	idle    *sync.Cond // signals: a worker finished a job (for Drain)
	pending []queuedJob
	active  int
	closed  bool
}

// queuedJob is one submitted unit: the job function, its context, and
// when it entered the queue.
type queuedJob struct {
	ctx      context.Context
	fn       func(context.Context)
	enqueued time.Time
}

// NewQueue starts a queue with the given number of workers (minimum 1).
// The workers live until Close/Drain.
func NewQueue(workers int) *Queue {
	if workers < 1 {
		workers = 1
	}
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	q.idle = sync.NewCond(&q.mu)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit enqueues fn to run on a worker with ctx. It returns
// ErrQueueClosed after Close/Drain; it never blocks on queue depth (the
// queue is bounded by worker count, not by admission — admission control
// is the caller's policy).
func (q *Queue) Submit(ctx context.Context, fn func(context.Context)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	q.pending = append(q.pending, queuedJob{ctx: ctx, fn: fn, enqueued: time.Now()})
	q.cond.Signal()
	return nil
}

// Len returns the number of jobs waiting (not yet picked up by a worker).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Active returns the number of jobs currently executing.
func (q *Queue) Active() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active
}

// Drain closes the queue to new submissions and waits until every
// already-accepted job — queued or executing — has finished, or ctx
// expires (context.Cause error returned; the jobs keep running). Calling
// Drain twice is fine; the second call just waits.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	// Waking the cond-wait from a context is done with a watcher: when ctx
	// fires it broadcasts so the loop below can re-check.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.idle.Broadcast()
		q.mu.Unlock()
	})
	defer stop()

	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending) > 0 || q.active > 0 {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		q.idle.Wait()
	}
	return nil
}

// Close is Drain with no deadline.
func (q *Queue) Close() { _ = q.Drain(context.Background()) }

// worker pops jobs FIFO until the queue is closed and empty.
func (q *Queue) worker() {
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 { // closed and drained
			q.mu.Unlock()
			return
		}
		job := q.pending[0]
		q.pending = q.pending[1:]
		q.active++
		onStart := q.OnStart
		q.mu.Unlock()

		if onStart != nil {
			onStart(time.Since(job.enqueued))
		}
		job.fn(job.ctx)

		q.mu.Lock()
		q.active--
		q.idle.Broadcast()
		q.mu.Unlock()
	}
}
