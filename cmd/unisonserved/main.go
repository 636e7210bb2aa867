// Command unisonserved is the simulation daemon: it serves the
// unisoncache simulation engine over HTTP/JSON with a job scheduler, a
// content-addressed result cache, an optional crash-safe persistent
// result store, and optional cluster routing, so repeated and
// overlapping sweeps — across clients, across restarts, and across a
// fleet of daemons — execute each distinct configuration once. The
// daemon executes single runs; a client sweeps by running the sweep
// engine over a Plan whose Executor submits each point (package
// unisoncache/client).
//
// Usage:
//
//	unisonserved -addr :8080
//	unisonserved -addr 127.0.0.1:8080 -workers 8 -store-dir /var/lib/unison
//	unisonserved -addr 127.0.0.1:8081 -self http://127.0.0.1:8081 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	    -store-dir /var/lib/unison-1 -log-format json -pprof-addr 127.0.0.1:6061
//
// Endpoints: POST /v1/runs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/events (NDJSON progress),
// GET /v1/jobs/{id}/telemetry (NDJSON epochs), DELETE /v1/jobs/{id},
// GET /v1/results/{key} (pure cache/store lookup), GET /healthz
// (readiness: 503 while draining), GET /livez (liveness), GET /metrics
// (Prometheus text: counters, gauges, latency histograms).
//
// With -store-dir the daemon persists every result it produces to an
// append-only segment log and serves its history from disk after a
// restart — even a kill -9 (recovery drops only a torn tail). With
// -self/-peers the daemons build a shared consistent-hash ring and
// route each run to the member owning its key, filling from peer
// caches before ever re-simulating.
//
// Observability: logs are structured (log/slog; -log-format text|json,
// -log-level), every request carries an X-Unison-Request-Id that
// follows it across cluster hops, requests slower than -slow-threshold
// are warned about, and -pprof-addr exposes net/http/pprof on a
// separate listener (off by default — keep it on loopback or a private
// interface).
//
// On SIGTERM/SIGINT the daemon drains gracefully: new submissions get
// 503 and /healthz flips to 503 (load balancers stop routing), accepted
// jobs run to completion (bounded by -drain-timeout), then the listener
// closes. Point clients at it with the unisoncache/client package or
// cmd/experiments -server (which accepts the same comma-separated
// member list).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"unisoncache/internal/obs"
	"unisoncache/internal/serve"
	"unisoncache/internal/store"
)

// options is the parsed flag set.
type options struct {
	addr          string
	workers       int
	cacheBytes    int64
	self          string
	peers         string
	storeDir      string
	storeBytes    int64
	drainTimeout  time.Duration
	logFormat     string
	logLevel      string
	slowThreshold time.Duration
	pprofAddr     string
}

// parseFlags reads the daemon's configuration from args.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("unisonserved", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "runs executing concurrently, one per CPU by default; queued runs wait FIFO")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 256<<20, "in-memory result cache budget in bytes (LRU by marshaled size)")
	fs.StringVar(&o.self, "self", "", "this daemon's base URL in the -peers list (enables cluster routing)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated base URLs of every cluster member, including this one")
	fs.StringVar(&o.storeDir, "store-dir", "", "directory for the persistent result store (empty = memory only)")
	fs.Int64Var(&o.storeBytes, "store-bytes", 1<<30, "persistent store budget in bytes (oldest segments evicted)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "how long SIGTERM waits for accepted jobs (0 = forever)")
	fs.StringVar(&o.logFormat, "log-format", obs.LogText, "structured log format: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.DurationVar(&o.slowThreshold, "slow-threshold", time.Minute, "warn about HTTP requests slower than this (0 disables; the NDJSON events and telemetry streams are exempt)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "listen address for net/http/pprof (empty = disabled; use loopback)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if (o.self == "") != (o.peers == "") {
		return options{}, fmt.Errorf("-self and -peers must be set together")
	}
	// Validate the observability flags at parse time so a typo fails the
	// daemon before it binds anything.
	if _, err := obs.NewLogger(os.Stderr, o.logFormat, slog.LevelInfo); err != nil {
		return options{}, fmt.Errorf("-log-format: %w", err)
	}
	if _, err := obs.ParseLevel(o.logLevel); err != nil {
		return options{}, fmt.Errorf("-log-level: %w", err)
	}
	return o, nil
}

// logger builds the daemon logger from the validated flags.
func logger(o options) *slog.Logger {
	level, _ := obs.ParseLevel(o.logLevel)
	lg, _ := obs.NewLogger(os.Stderr, o.logFormat, level)
	return lg
}

// newServer builds the service from the options and the (possibly nil)
// persistent store.
func newServer(o options, st *store.Store, lg *slog.Logger) *serve.Server {
	return serve.New(serve.Config{
		Workers:       o.workers,
		CacheBytes:    o.cacheBytes,
		Store:         st,
		Self:          o.self,
		Peers:         strings.Split(o.peers, ","),
		Logger:        lg,
		SlowThreshold: o.slowThreshold,
	})
}

// servePprof starts the profiling listener when -pprof-addr is set: the
// standard net/http/pprof handlers on their own mux and port, kept off
// the API listener so profiling exposure is an explicit, separately
// firewallable choice. Errors are returned; the caller treats a pprof
// bind failure as fatal (an operator who asked for profiling wants to
// know it isn't there).
func servePprof(addr string, lg *slog.Logger) (string, closer, error) {
	if addr == "" {
		return "", nil, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			lg.Error("pprof server failed", "error", err.Error())
		}
	}()
	lg.Info("pprof listening", "addr", ln.Addr().String())
	return ln.Addr().String(), srv, nil
}

// closer lets run hold the pprof server only for shutdown.
type closer interface{ Close() error }

// run listens, serves until a signal arrives on stop, then drains and
// shuts down. ready (when non-nil) receives the bound address once the
// listener is up — tests use it to connect to an ":0" listener.
func run(o options, stop <-chan os.Signal, ready func(addr string)) error {
	lg := logger(o)
	var st *store.Store
	if o.storeDir != "" {
		var err error
		st, err = store.Open(o.storeDir, store.Options{MaxBytes: o.storeBytes})
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		defer st.Close()
		lg.Info("store recovered",
			"dir", o.storeDir, "results", st.Len(), "bytes", st.SizeBytes())
	}
	_, pp, err := servePprof(o.pprofAddr, lg)
	if err != nil {
		return err
	}
	if pp != nil {
		defer pp.Close()
	}
	s := newServer(o, st, lg)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: s.Handler()}
	lg.Info("listening",
		"addr", ln.Addr().String(), "workers", o.workers, "cache_bytes", o.cacheBytes,
		"cluster", o.self != "", "log_format", o.logFormat)
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		lg.Info("signal received; draining", "signal", sig.String())
	}

	drainCtx := context.Background()
	if o.drainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, o.drainTimeout)
		defer cancel()
	}
	if err := s.Drain(drainCtx); err != nil {
		lg.Warn("drain incomplete", "error", err.Error())
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	lg.Info("stopped")
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	if err := run(o, stop, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "unisonserved:", err)
		os.Exit(1)
	}
}
