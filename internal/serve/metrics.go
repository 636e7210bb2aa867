package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"unisoncache/client"
	"unisoncache/internal/obs"
)

// metrics is the daemon's counter set, exposed on GET /metrics in the
// Prometheus text exposition format (flat counters and gauges, no
// dependencies).
type metrics struct {
	cacheHits     atomic.Uint64 // executions served from the in-memory result cache
	cacheMisses   atomic.Uint64 // executions that actually simulated here
	coalesced     atomic.Uint64 // executions that joined an in-flight one
	storeHits     atomic.Uint64 // executions/lookups served from the persistent store
	peerFills     atomic.Uint64 // owned keys filled from a peer's cache instead of simulating
	proxied       atomic.Uint64 // runs forwarded to their owning daemon
	jobsSubmitted atomic.Uint64
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCanceled  atomic.Uint64
	// telemetryEpochs counts epoch timeline slices recorded onto job
	// records — live from local simulations plus terminal backfills from
	// cached/stored/peer results.
	telemetryEpochs atomic.Uint64
}

// latencies is the daemon's histogram set: fixed-bucket Prometheus-text
// histograms (internal/obs) over every latency the cluster story cares
// about. All observations are whole-operation durations recorded at the
// service layer — nothing here runs inside the replay hot path.
type latencies struct {
	// http is per-endpoint request latency, labeled by route pattern.
	http *obs.Vec
	// queueWait is how long jobs sat queued before a worker picked them
	// up (fed by the runner queue's OnStart hook).
	queueWait *obs.Histogram
	// execute is the wall-clock duration of actual simulations (cache
	// misses that ran the engine).
	execute *obs.Histogram
	// storeRead / storeWrite are persistent-store operation latencies.
	storeRead  *obs.Histogram
	storeWrite *obs.Histogram
	// peer is cluster round-trip latency, labeled by hop kind
	// ("proxy" for forwarding to the owner, "peer-fill" for cache
	// lookups on other members).
	peer *obs.Vec
	// epochGap is the wall-clock gap between consecutive telemetry epochs
	// a live simulation emits — the epoch cadence, which tracks replay
	// throughput (epoch length is fixed in events, so the gap is
	// events-per-epoch over events-per-second).
	epochGap *obs.Histogram
}

func newLatencies() *latencies {
	return &latencies{
		http:       obs.NewVec("unisonserved_http_request_seconds", "HTTP request latency by route.", "route", nil),
		queueWait:  obs.NewHistogram("unisonserved_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", nil),
		execute:    obs.NewHistogram("unisonserved_execute_seconds", "Wall-clock duration of simulations executed on this daemon.", nil),
		storeRead:  obs.NewHistogram("unisonserved_store_read_seconds", "Persistent result store read latency.", nil),
		storeWrite: obs.NewHistogram("unisonserved_store_write_seconds", "Persistent result store write latency.", nil),
		peer:       obs.NewVec("unisonserved_peer_roundtrip_seconds", "Cluster round-trip latency by hop kind.", "op", nil),
		epochGap:   obs.NewHistogram("unisonserved_telemetry_epoch_gap_seconds", "Wall-clock gap between consecutive telemetry epochs emitted by live simulations.", nil),
	}
}

// buildVersion resolves the daemon's module version from the binary's
// embedded build info ("(devel)" for a plain go build / go test).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// handleMetrics renders every counter, gauge and histogram.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counterFloat := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeFloat := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("unisonserved_cache_hits_total", "Run executions served from the in-memory content-addressed result cache.", s.m.cacheHits.Load())
	counter("unisonserved_cache_misses_total", "Run executions that simulated on this daemon (cache fill).", s.m.cacheMisses.Load())
	counter("unisonserved_inflight_coalesced_total", "Run executions deduplicated onto a concurrent identical execution.", s.m.coalesced.Load())
	counter("unisonserved_store_hits_total", "Run executions and lookups served from the persistent result store.", s.m.storeHits.Load())
	counter("unisonserved_peer_fills_total", "Owned keys filled from a cluster peer's cache instead of re-simulating.", s.m.peerFills.Load())
	counter("unisonserved_proxied_total", "Runs forwarded to the cluster member owning their key.", s.m.proxied.Load())
	counter("unisonserved_jobs_submitted_total", "Jobs accepted by the submit endpoints.", s.m.jobsSubmitted.Load())
	counter("unisonserved_jobs_done_total", "Jobs that completed successfully.", s.m.jobsDone.Load())
	counter("unisonserved_jobs_failed_total", "Jobs that ended in an error.", s.m.jobsFailed.Load())
	counter("unisonserved_jobs_canceled_total", "Jobs canceled before completing.", s.m.jobsCanceled.Load())
	counter("unisonserved_telemetry_epochs_total", "Telemetry epochs recorded onto job records (live simulations plus terminal backfills).", s.m.telemetryEpochs.Load())
	gauge("unisonserved_cache_entries", "Results currently held by the in-memory cache.", uint64(s.cache.len()))
	gauge("unisonserved_cache_bytes", "Accounted marshaled size of the in-memory cache's results.", uint64(s.cache.bytes()))
	if s.store != nil {
		gauge("unisonserved_store_bytes", "On-disk size of the persistent result store's segments.", uint64(s.store.SizeBytes()))
		gauge("unisonserved_store_records", "Distinct keys indexed by the persistent result store.", uint64(s.store.Len()))
	}
	gauge("unisonserved_queue_depth", "Jobs waiting for a worker.", uint64(s.queue.Len()))
	gauge("unisonserved_jobs_active", "Jobs currently executing.", uint64(s.queue.Active()))
	var draining uint64
	if s.draining.Load() {
		draining = 1
	}
	gauge("unisonserved_draining", "1 while the daemon is draining for shutdown.", draining)

	// Engine throughput: cumulative events/busy-time fed by the runner
	// per completed simulation, plus the derived lifetime rate.
	counter("unisonserved_engine_events_total", "Trace events replayed by simulations on this daemon.", s.meter.Events())
	counter("unisonserved_engine_runs_total", "Simulations executed by the engine on this daemon.", s.meter.Runs())
	counterFloat("unisonserved_engine_busy_seconds_total", "Cumulative wall-clock seconds spent simulating.", s.meter.BusySeconds())
	gaugeFloat("unisonserved_engine_events_per_second", "Lifetime average engine replay rate in events per second.", s.meter.EventsPerSecond())
	done, total := s.runningProgress()
	gaugeFloat("unisonserved_replay_progress_ratio", "Completed fraction of executions across currently running jobs (0 when idle).", progressRatio(done, total))

	// Build provenance: the Go version and core count qualify every
	// throughput number above, as they do on perfbench's records.
	fmt.Fprintf(w, "# HELP unisonserved_build_info Build provenance of the running daemon.\n# TYPE unisonserved_build_info gauge\n")
	fmt.Fprintf(w, "unisonserved_build_info{version=%q,go_version=%q,cores_available=\"%d\"} 1\n",
		buildVersion(), runtime.Version(), runtime.NumCPU())

	// Latency histograms last: families render contiguously.
	s.lat.http.Write(w)
	s.lat.queueWait.Write(w)
	s.lat.execute.Write(w)
	if s.store != nil {
		s.lat.storeRead.Write(w)
		s.lat.storeWrite.Write(w)
	}
	s.lat.peer.Write(w)
	s.lat.epochGap.Write(w)
}

// runningProgress sums done/total across currently running jobs.
func (s *Server) runningProgress() (done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if snap := j.snapshot(); snap.State == client.StateRunning {
			done += snap.Done
			total += snap.Total
		}
	}
	return done, total
}

// progressRatio is done/total guarded against idle (0/0).
func progressRatio(done, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(done) / float64(total)
}
