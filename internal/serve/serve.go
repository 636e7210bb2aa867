// Package serve implements the simulation service behind cmd/unisonserved:
// an HTTP/JSON API that accepts Run and sweep submissions, schedules them
// as jobs on a bounded worker pool (internal/runner.Queue), and serves
// repeat requests from a content-addressed result cache keyed by the
// canonical run hash (unisoncache.RunKey).
//
// The API surface:
//
//	POST /v1/runs                submit one Run            → Job
//	POST /v1/sweeps              submit a point list       → Job
//	GET  /v1/jobs/{id}           job status + results      → Job
//	GET  /v1/jobs/{id}/events    NDJSON progress stream    → Event lines
//	GET  /v1/jobs/{id}/telemetry NDJSON epoch timeline     → TimelineEpoch lines
//	DELETE /v1/jobs/{id}         cancel a job              → Job
//	GET  /healthz                readiness (503 draining)  → Health
//	GET  /livez                  liveness (always 200)     → Health
//	GET  /metrics                Prometheus text counters + histograms
//
// Observability (DESIGN.md §14): every request carries an ID
// (X-Unison-Request-Id, minted at the edge when absent) that propagates
// through proxy one-hops, peer cache fills and the job record, whose
// span timeline (received → queued → execution stage → done) is served
// on the job endpoints. Latency histograms cover HTTP requests, queue
// wait, execution, store I/O and cluster hops; structured logs
// (log/slog) carry the request ID, run-key prefix and member name.
//
// Determinism contract: every result the service returns is bit-identical
// to calling Execute / ExecuteMany / SpeedupMany in process. The cache
// can only serve a result that some execution of the exact same
// defaulted configuration produced, runs are pure functions of that
// configuration, and sweep assembly happens through the public sweep
// engine itself (the service merely interposes the Plan.Executor hook),
// so caching and in-flight deduplication are observable in /metrics and
// latency — never in payload bytes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/canonjson"
	"unisoncache/internal/cluster"
	"unisoncache/internal/obs"
	"unisoncache/internal/runner"
	"unisoncache/internal/store"
)

// maxRequestBytes bounds submit-request bodies (a 100k-point sweep is
// ~50 MB of JSON; nobody legitimate sends that).
const maxRequestBytes = 8 << 20

// Execution-stage span names: how one run execution was satisfied.
// These are the stages the job timeline records after "queued", and the
// vocabulary DESIGN.md §14 documents.
const (
	srcCacheHit  = "cache-hit" // served from the in-memory result cache
	srcCoalesced = "coalesced" // joined a concurrent identical execution
	srcStoreHit  = "store-hit" // read from the persistent store
	srcPeerFill  = "peer-fill" // fetched from a cluster peer's cache
	srcProxied   = "proxied"   // forwarded to the owning daemon
	srcSimulated = "simulated" // actually executed the engine here
)

// Config parameterizes a Server.
type Config struct {
	// Jobs is the per-plan worker fan-out each executing sweep uses
	// (Plan.Jobs; 0 = one worker per CPU).
	Jobs int
	// Workers is how many jobs execute concurrently (default 2). Queued
	// jobs beyond that wait FIFO.
	Workers int
	// CacheBytes bounds the in-memory content-addressed result cache by
	// the marshaled size of the results it holds (default 256 MiB, LRU
	// eviction).
	CacheBytes int64
	// JobHistory bounds how many finished jobs (and their result
	// payloads) stay queryable via GET /v1/jobs/{id} (default 1024;
	// oldest-finished evicted first). Queued and running jobs are never
	// evicted. Results travel only through the job record, so clients
	// must collect them before JobHistory other jobs finish — the stock
	// client fetches immediately on the terminal event, which the
	// default depth makes safe; a tiny JobHistory under heavy concurrent
	// traffic can evict a job before a slow client collects it.
	JobHistory int
	// Execute overrides the per-run execution function. Nil means
	// unisoncache.Execute; tests substitute fakes to make caching and
	// dedup observable without simulating.
	Execute func(uc.Run) (uc.Result, error)

	// Store, when non-nil, persists every locally produced result and is
	// consulted on cache misses, so a restarted daemon serves its history
	// from disk instead of re-simulating. The caller owns the store's
	// lifecycle (open before New, close after Drain).
	Store *store.Store

	// Self and Peers configure cluster routing. Peers is the full static
	// member list (daemon base URLs, any order) and Self is this
	// daemon's own entry in it. When both are set, the daemon builds the
	// shared consistent-hash ring: runs it owns execute locally (after
	// trying peer caches), runs it doesn't own are forwarded to their
	// owner. Empty means single-node, no routing. Member URLs are
	// normalized by cluster.Member, as the client normalizes its list.
	Self  string
	Peers []string

	// Logger receives the daemon's structured logs. Nil discards them
	// (the in-process test default); cmd/unisonserved wires a text or
	// JSON slog logger per -log-format. Per-request loggers derive from
	// it, carrying the request ID, run-key prefix and member name.
	Logger *slog.Logger
	// SlowThreshold, when > 0, logs any HTTP request slower than this at
	// warning level (the NDJSON events and telemetry streams are exempt —
	// holding them open for a job's lifetime is waiting, not work).
	SlowThreshold time.Duration
}

// Server is the simulation service. Create with New, expose with
// Handler, shut down with Drain.
type Server struct {
	cfg Config
	// execute runs one simulation, streaming telemetry epochs to onEpoch
	// (ignored when nil, or when Config.Execute overrode the engine —
	// fakes' timelines still reach the stream via the terminal backfill).
	execute func(r uc.Run, onEpoch func(uc.TimelineEpoch)) (uc.Result, error)
	queue   *runner.Queue
	cache   *resultCache
	store   *store.Store
	m       metrics
	lat     *latencies
	meter   obs.Meter
	log     *slog.Logger
	slow    time.Duration

	// Cluster routing (nil ring = single-node).
	self  string
	ring  *cluster.Ring
	peers map[string]*client.Client // member URL → client, self excluded

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first (bounded retention)
	seq      int

	draining atomic.Bool
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 256 << 20
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 1024
	}
	execute := uc.ExecuteObserved
	if cfg.Execute != nil {
		override := cfg.Execute
		execute = func(r uc.Run, _ func(uc.TimelineEpoch)) (uc.Result, error) { return override(r) }
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		execute: execute,
		queue:   runner.NewQueue(workers),
		cache:   newResultCache(cacheBytes),
		store:   cfg.Store,
		lat:     newLatencies(),
		log:     logger,
		slow:    cfg.SlowThreshold,
		jobs:    make(map[string]*job),
	}
	// Queue wait is measured by the runner itself: the hook fires when a
	// worker picks a job up, with the time it sat pending.
	s.queue.OnStart = func(waited time.Duration) {
		s.lat.queueWait.Observe(waited.Seconds())
	}
	if self := cluster.Member(cfg.Self); self != "" && len(cfg.Peers) > 0 {
		ring := cluster.New(append([]string{self}, cfg.Peers...), 0)
		s.self, s.ring = self, ring
		s.log = s.log.With("member", self)
		s.peers = make(map[string]*client.Client)
		for _, n := range ring.Nodes() {
			if n == self {
				continue
			}
			cl := client.New(n)
			// Every daemon-to-daemon request carries the forwarded
			// marker, so the receiver executes locally instead of
			// routing again — one hop maximum, no proxy loops. The
			// request ID rides along per call from the context.
			cl.Header = http.Header{forwardedHeader: []string{"1"}}
			s.peers[n] = cl
		}
	}
	return s
}

// Handler returns the service's HTTP handler: the API mux wrapped in
// the observability middleware (request IDs, per-route latency
// histograms, structured request logs).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// statusWriter captures the response code for logging and forwards
// Flush so the NDJSON events stream keeps streaming through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the observability middleware: it adopts the caller's
// request ID (or mints one at this edge), echoes it on the response,
// installs it in the request context for everything downstream — job
// records, proxy hops, peer fills — observes the per-route latency
// histogram, and writes the structured request log line. Read-only
// probe endpoints log at debug so an idle daemon's log stays quiet at
// the default level; submissions, cancels and cluster lookups log at
// info.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		w.Header().Set(obs.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		req := r.WithContext(ctx)
		start := time.Now()
		next.ServeHTTP(sw, req)
		dur := time.Since(start)

		// The route is the path of the pattern the mux matched; a request
		// it rejected matched none.
		route := "other"
		if i := strings.IndexByte(req.Pattern, '/'); i >= 0 {
			route = req.Pattern[i:]
		}
		s.lat.http.With(route).Observe(dur.Seconds())
		// The NDJSON streams are held open for a job's lifetime: waiting,
		// not work, so they never count as slow.
		stream := route == "/v1/jobs/{id}/events" || route == "/v1/jobs/{id}/telemetry"
		level := slog.LevelInfo
		if stream || route == "/healthz" || route == "/livez" || route == "/metrics" || route == "/v1/jobs/{id}" {
			level = slog.LevelDebug
		}
		lg := s.log.With("req_id", id)
		lg.Log(ctx, level, "http request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", sw.code, "dur_ms", durMillis(dur))
		if s.slow > 0 && dur >= s.slow && !stream {
			lg.Warn("slow request",
				"method", r.Method, "route", route, "path", r.URL.Path,
				"status", sw.code, "dur_ms", durMillis(dur), "threshold", s.slow.String())
		}
	})
}

// durMillis renders a duration as fractional milliseconds for log
// lines.
func durMillis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// reqLog returns the per-request logger: the daemon logger plus the
// context's request ID.
func (s *Server) reqLog(ctx context.Context) *slog.Logger {
	return s.log.With("req_id", obs.RequestIDFrom(ctx))
}

// keyPrefix shortens a run key for log lines (the full key is a
// 64-char SHA-256 hex).
func keyPrefix(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Drain flips the daemon into shutdown: new submissions are rejected with
// 503, read endpoints keep answering, and Drain blocks until every
// accepted job has finished (or ctx expires). Call before closing the
// HTTP listener so SIGTERM never abandons accepted work.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("draining", "queued", s.queue.Len(), "active", s.queue.Active())
	return s.queue.Drain(ctx)
}

// executeKeyed is the service's single-run execution path for job j: the
// caller computed the run's canonical key (for replay runs RunKey
// digests the whole capture file, so recomputing is a full extra read).
// A memory-cache hit or a join onto an in-flight execution costs nothing
// here; on a miss the fill order is: persistent store, then cluster
// routing (forward to the owner, or peer caches when this daemon is the
// owner), then simulation — so re-simulating is strictly the last
// resort. forwarded marks a request already routed by a peer daemon,
// which must execute here (one hop maximum, no proxy loops). onEpoch,
// when non-nil, receives telemetry epochs live — but only when this call
// actually simulates; every other source delivers its timeline on the
// finished Result, which the caller backfills. A successful execution is
// recorded on j under the stage that satisfied it.
func (s *Server) executeKeyed(ctx context.Context, j *job, key string, r uc.Run, forwarded bool, onEpoch func(uc.TimelineEpoch)) (uc.Result, error) {
	start := time.Now()
	source := srcSimulated
	res, hit, shared, err := s.cache.do(key, func() (uc.Result, int64, error) {
		if res, n, ok := s.storeGet(key); ok {
			s.m.storeHits.Add(1)
			source = srcStoreHit
			return res, n, nil
		}
		if s.ring != nil {
			if owner := s.ring.Owner(key); owner != s.self {
				if !forwarded {
					if res, err := s.remoteExecute(ctx, owner, key, r); err == nil {
						s.m.proxied.Add(1)
						source = srcProxied
						return res, 0, nil
					}
					// Owner unreachable: fall back to executing locally —
					// availability over placement; the result is still
					// correct, just cached off its home node.
				}
				// A forwarded request landing off-owner executes here (one
				// hop maximum, no proxy loops).
			} else if res, ok := s.peerFill(ctx, key); ok {
				// The owner checks peer caches before simulating whether
				// the request arrived directly or via a proxy hop — peer
				// fill is a pure lookup, so it cannot loop.
				s.m.peerFills.Add(1)
				source = srcPeerFill
				return res, s.storePut(key, res), nil
			}
		}
		s.m.cacheMisses.Add(1)
		start := time.Now()
		res, err := s.execute(r, onEpoch)
		dur := time.Since(start)
		s.lat.execute.Observe(dur.Seconds())
		if err == nil {
			// Feed the engine meter, once per simulation — never per
			// event: a full run replays the defaulted run's whole trace
			// (echoed on the result); a sampled run simulates every core
			// through its last window's end and reports exactly those
			// events.
			events := uint64(res.Run.AccessesPerCore) * uint64(max(res.Run.Cores, 0))
			if res.CI != nil {
				events = res.CI.SimulatedEvents
			}
			s.meter.RecordRun(events, dur)
			return res, s.storePut(key, res), nil
		}
		return res, 0, err
	})
	switch {
	case hit:
		s.m.cacheHits.Add(1)
		source = srcCacheHit
	case shared:
		s.m.coalesced.Add(1)
		source = srcCoalesced
	}
	if err == nil {
		j.recordExecution(source, start, hit || shared)
	}
	return res, err
}

// held returns a result the daemon already holds for key, and the stage
// that found it: the memory cache, else the persistent store, whose hit
// is counted and moved into the cache. It never executes anything.
func (s *Server) held(key string) (uc.Result, string, bool) {
	if res, ok := s.cache.get(key); ok {
		return res, srcCacheHit, true
	}
	res, n, ok := s.storeGet(key)
	if ok {
		s.m.storeHits.Add(1)
		s.cache.add(key, res, n)
	}
	return res, srcStoreHit, ok
}

// register records a new job for the submission r. The job outlives the
// HTTP request, so its context derives from the background — but it
// keeps carrying the request's ID, which is what threads the ID through
// proxy hops and peer fills during execution. The job's cancel function
// releases that context.
func (s *Server) register(r *http.Request, kind string, total int) (*job, context.Context) {
	requestID := obs.RequestIDFrom(r.Context())
	ctx, cancel := context.WithCancel(obs.WithRequestID(context.Background(), requestID))
	s.mu.Lock()
	s.seq++
	j := newJob("j"+strconv.Itoa(s.seq), kind, total, requestID, cancel)
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.m.jobsSubmitted.Add(1)
	return j, ctx
}

// admit rejects submissions while draining.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining; not accepting new jobs")
		return false
	}
	return true
}

// handleSubmitRun accepts one Run. A result the daemon already holds
// completes the job synchronously, so a cached submission is a single
// round trip; otherwise the job is queued.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeRunRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, ctx := s.register(r, "run", 1)

	run := req.Run
	forwarded := r.Header.Get(forwardedHeader) != ""
	// The canonical key is computed once here — for replay runs it
	// digests the whole capture file — and reused by both the cached
	// fast path and the queued execution. A key error (unreadable trace)
	// is carried into the job, which fails with it.
	key, keyErr := uc.RunKey(run)
	if keyErr == nil {
		s.reqLog(r.Context()).Info("run submitted",
			"job", j.id, "run_key", keyPrefix(key),
			"workload", run.Workload, "design", string(run.Design), "forwarded", forwarded)
		// Cached fast path: a result the daemon already holds — in
		// memory or on disk — answers the submission synchronously: one
		// round trip, no queue. The store check is what lets a freshly
		// restarted daemon keep answering its history in one hop.
		lookup := time.Now()
		if res, source, ok := s.held(key); ok {
			if source == srcCacheHit {
				s.m.cacheHits.Add(1)
			}
			j.recordExecution(source, lookup, true)
			s.backfillEpochs(j, &res)
			j.finish(ctx, nil, &res, nil, nil)
			writeJSON(w, http.StatusOK, s.countFinished(j))
			return
		}
	}
	submitted := time.Now()
	onEpoch := s.liveEpochs(j)
	work := func(ctx context.Context) {
		j.tl.Observe("queued", submitted)
		j.setRunning()
		var result *uc.Result
		err := ctx.Err()
		if err == nil {
			err = keyErr
		}
		if err == nil {
			var res uc.Result
			if res, err = s.executeKeyed(ctx, j, key, run, forwarded, onEpoch); err == nil {
				result = &res
			}
		}
		s.backfillEpochs(j, result)
		j.finish(ctx, err, result, nil, nil)
		s.countFinished(j)
	}
	s.submit(w, j, ctx, work)
}

// submit hands a job to the queue, converting a Submit failure (a race
// with Drain closing the queue) into a terminal failed job rather than
// leaving it queued forever with no worker ever to finish it.
func (s *Server) submit(w http.ResponseWriter, j *job, ctx context.Context, work func(context.Context)) {
	if err := s.queue.Submit(ctx, work); err != nil {
		// Finish against a fresh context so the job records the Submit
		// failure, not a cancellation; then release the job's context.
		j.finish(context.Background(), err, nil, nil, nil)
		s.countFinished(j)
		j.cancel()
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// handleSubmitSweep accepts an ordered point list and executes it through
// the public sweep engine with the cache interposed as Plan.Executor.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeSweepRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	total := len(req.Points)
	if req.Mode == client.ModeSpeedup {
		total *= 2 // each point plus its (memoized) baseline — an upper bound
	}
	forwarded := r.Header.Get(forwardedHeader) != ""
	j, ctx := s.register(r, "sweep", total)
	s.reqLog(r.Context()).Info("sweep submitted",
		"job", j.id, "points", len(req.Points), "mode", req.Mode,
		"forwarded", forwarded)

	submitted := time.Now()
	work := func(ctx context.Context) {
		j.tl.Observe("queued", submitted)
		j.setRunning()
		plan := uc.Plan{
			Points: req.Points,
			Jobs:   s.cfg.Jobs,
			Executor: func(run uc.Run) (uc.Result, error) {
				if err := ctx.Err(); err != nil {
					return uc.Result{}, context.Cause(ctx)
				}
				key, err := uc.RunKey(run)
				if err != nil {
					return uc.Result{}, err
				}
				return s.executeKeyed(ctx, j, key, run, forwarded, nil)
			},
		}
		var (
			results  []uc.Result
			speedups []uc.SpeedupResult
			err      error
		)
		switch {
		case ctx.Err() != nil:
			err = context.Cause(ctx)
		case req.Mode == client.ModeSpeedup:
			speedups, err = uc.SpeedupMany(plan)
		default:
			results, err = uc.ExecuteMany(plan)
		}
		j.finish(ctx, err, nil, results, speedups)
		s.countFinished(j)
	}
	s.submit(w, j, ctx, work)
}

// countFinished bumps the terminal-state counters and retires the job
// into the bounded history: once more than JobHistory jobs have
// finished, the oldest-finished ones — with their result payloads — are
// forgotten, so a long-running daemon's job registry cannot grow without
// bound. (The result cache keeps serving the underlying runs either
// way; only the job records age out.) It returns the terminal snapshot
// it counted.
func (s *Server) countFinished(j *job) client.Job {
	snap := j.snapshot()
	switch snap.State {
	case client.StateDone:
		s.m.jobsDone.Add(1)
	case client.StateFailed:
		s.m.jobsFailed.Add(1)
	case client.StateCanceled:
		s.m.jobsCanceled.Add(1)
	}
	s.log.Info("job finished",
		"req_id", snap.RequestID, "job", j.id, "kind", j.kind,
		"state", snap.State, "done", snap.Done, "cache_hits", snap.CacheHits,
		"error", snap.Error)
	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobHistory {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	return snap
}

// lookupJob resolves {id} or writes 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return nil
	}
	return j
}

// handleJob returns the job snapshot (results included once done).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

// handleCancelJob cancels the job's context. A queued job records the
// cancellation when a worker reaches it; a running sweep aborts at its
// next point execution.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.cancel()
	j.markCanceledIfQueued()
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleEvents streams the job's progress as NDJSON: the current state
// immediately, a line per change, the terminal line last, then EOF.
// Every line carries the job's request ID and current span timeline.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		streamNDJSON(w, r, j, func(int) ([]client.Event, bool) {
			snap := j.snapshot()
			return []client.Event{{
				State: snap.State, Done: snap.Done, Total: snap.Total,
				Error: snap.Error, RequestID: snap.RequestID, Spans: snap.Spans,
			}}, snap.Terminal()
		})
	}
}

// streamNDJSON writes one of a job's NDJSON streams: next(sent) returns
// the lines due after the sent already written and whether the job is
// terminal. The headers and the first lines go out at once, so a client
// following a running job sees the stream open; then each job change
// writes what next adds, until the job is terminal (EOF) or the client
// goes away.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, j *job, next func(sent int) ([]T, bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	tick, unsubscribe := j.subscribe()
	defer unsubscribe()
	for sent := 0; ; {
		lines, terminal := next(sent)
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return
			}
		}
		sent += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-tick:
		case <-r.Context().Done():
			return
		}
	}
}

// liveEpochs returns the job's live telemetry sink: each epoch a local
// simulation emits lands on the job record immediately — streaming to
// /telemetry subscribers while the run executes — feeds the epochs
// counter, and its arrival gap the cadence histogram. The engine invokes
// the sink from the single executing goroutine, so last needs no lock.
func (s *Server) liveEpochs(j *job) func(uc.TimelineEpoch) {
	var last time.Time
	return func(e uc.TimelineEpoch) {
		now := time.Now()
		if !last.IsZero() {
			s.lat.epochGap.Observe(now.Sub(last).Seconds())
		}
		last = now
		s.m.telemetryEpochs.Add(1)
		j.addEpochs(e)
	}
}

// backfillEpochs copies onto the job any timeline epochs it has not yet
// recorded, so results that arrived whole — cache, store, peer and proxy
// hits, coalesced executions — replay their telemetry over the stream
// exactly like a live simulation. It must run before the job turns
// terminal: epochsFrom pairs the epoch tail with the terminal flag, so
// this ordering is what guarantees a stream never ends short.
func (s *Server) backfillEpochs(j *job, res *uc.Result) {
	if res == nil || res.Timeline == nil {
		return
	}
	have := j.epochCount()
	if have >= len(res.Timeline.Epochs) {
		return
	}
	tail := res.Timeline.Epochs[have:]
	s.m.telemetryEpochs.Add(uint64(len(tail)))
	j.addEpochs(tail...)
}

// handleTelemetry streams the job's epoch timeline as NDJSON: one
// TimelineEpoch per line, live while a telemetry-enabled run simulates,
// replayed from the job record for finished jobs, EOF after the terminal
// drain. Jobs without telemetry yield an empty body.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		streamNDJSON(w, r, j, j.epochsFrom)
	}
}

// handleHealthz is the readiness probe: 200 while the daemon accepts
// work, 503 with Ready=false once it is draining — load balancers stop
// routing to a member the moment it starts shutting down, while /livez
// keeps reporting the process alive.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	draining := s.draining.Load()
	h := client.Health{Status: "ok", Ready: !draining, Draining: draining}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleLivez is the liveness probe: 200 for as long as the process
// serves HTTP, draining or not.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, client.Health{Status: "ok", Ready: !s.draining.Load(), Draining: s.draining.Load()})
}

// DecodeRunRequest strictly decodes a POST /v1/runs body: unknown JSON
// fields anywhere in the payload fail (Run.UnmarshalJSON), as do unknown
// designs and — because this is the request boundary, where the daemon's
// workload registry is authoritative — unknown workloads, all with
// actionable errors. A canonical body, as the stock client sends it, is
// read in one pass (readRunRequest); anything else goes, untouched, to the
// strict encoding/json decoder.
func DecodeRunRequest(data []byte) (client.RunRequest, error) {
	req, ok := readRunRequest(data)
	if !ok {
		var strict client.RunRequest
		if err := decodeStrict(data, &strict); err != nil {
			return client.RunRequest{}, fmt.Errorf("run request: %w", err)
		}
		req = strict
	}
	if err := req.Run.ValidateNames(); err != nil {
		return client.RunRequest{}, fmt.Errorf("run request: %w", err)
	}
	return req, nil
}

// readRunRequest reads a run request on the canonical path and reports
// whether the whole body was inside it: one object whose only key is
// "run", holding a Run that Run.UnmarshalJSON accepts.
func readRunRequest(data []byte) (client.RunRequest, bool) {
	var req client.RunRequest
	cr := canonjson.NewReader(data)
	cr.Begin('{')
	for cr.Next('}') {
		if string(cr.Key()) != "run" || req.Run.UnmarshalJSON(cr.Object()) != nil {
			cr.Fail()
		}
	}
	return req, cr.End()
}

// DecodeSweepRequest strictly decodes a POST /v1/sweeps body and
// validates the mode and every point's names.
func DecodeSweepRequest(data []byte) (client.SweepRequest, error) {
	var req client.SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return client.SweepRequest{}, fmt.Errorf("sweep request: %w", err)
	}
	for i, p := range req.Points {
		if err := p.ValidateNames(); err != nil {
			return client.SweepRequest{}, fmt.Errorf("sweep request: point %d: %w", i, err)
		}
	}
	switch req.Mode {
	case "", client.ModeExecute, client.ModeSpeedup:
	default:
		return client.SweepRequest{}, fmt.Errorf("sweep request: unknown mode %q (have %q, %q)", req.Mode, client.ModeExecute, client.ModeSpeedup)
	}
	if len(req.Points) == 0 {
		return client.SweepRequest{}, fmt.Errorf("sweep request: empty points")
	}
	return req, nil
}

// decodeStrict decodes one JSON value rejecting unknown fields and
// trailing garbage.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// readBody reads a size-capped request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return body, nil
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the error payload.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
