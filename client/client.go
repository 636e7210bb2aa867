// Package client is the Go client for the unisonserved simulation
// service (internal/serve behind cmd/unisonserved): submit Runs over
// HTTP/JSON, follow job progress, and collect results that are
// bit-identical to calling Execute in process — repeat submissions come
// back from the daemon's content-addressed result cache without
// re-simulating.
//
//	cl := client.New("http://127.0.0.1:8080")
//	res, err := cl.Execute(ctx, unisoncache.Run{
//	    Workload: "web-search",
//	    Design:   unisoncache.DesignUnison,
//	    Capacity: 1 << 30,
//	})
//
// The daemon executes single runs only. A sweep is the in-process sweep
// engine over a Plan whose Executor calls Execute (or Cluster.Execute),
// so baseline memoization and point-order results are the engine's own:
//
//	results, err := unisoncache.SpeedupMany(unisoncache.Plan{
//	    Points:   points,
//	    Executor: func(r unisoncache.Run) (unisoncache.Result, error) { return cl.Execute(ctx, r) },
//	})
//
// Execute submits, waits on the job's NDJSON event stream, and unwraps
// the result; the low-level SubmitRun/Job/Wait/Cancel surface is exported
// for callers that manage jobs themselves.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	uc "unisoncache"
	"unisoncache/internal/obs"
)

// Retry defaults: up to defaultRetries additional attempts after a
// transient connect failure, exponential backoff from defaultRetryBase
// with ±50% jitter so a burst of clients retrying a recovering daemon
// does not stampede in lockstep.
const (
	defaultRetries   = 3
	defaultRetryBase = 100 * time.Millisecond
)

// Client talks to one daemon. The zero value is not usable; construct
// with New.
type Client struct {
	base string
	hc   *http.Client

	// Header entries (when non-nil) are added to every request. The
	// daemon's cluster layer uses this to mark proxied peer traffic;
	// callers can use it for auth or tracing headers.
	Header http.Header

	// MaxRetries caps the additional attempts made after a transient
	// connect error (connection refused/reset, dial timeout — failures
	// where the daemon never saw the request). 0 means the default (3);
	// negative disables retrying. Responses from the daemon, of any
	// status, are never retried here.
	MaxRetries int
	// RetryBackoff is the first retry's base delay, doubling per attempt
	// with jitter. 0 means the default (100ms).
	RetryBackoff time.Duration

	// OnRetry, when non-nil, is called before each retry sleep with the
	// attempt number just failed (1-based), the chosen backoff, and the
	// transport error. Tests and progress UIs hook it; it must not block.
	OnRetry func(attempt int, wait time.Duration, err error)
	// Logger, when non-nil, receives a structured warning per retry
	// (attempt, wait, error, URL). Nil stays silent — the default for a
	// library client.
	Logger *slog.Logger
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). The transport carries dial, TLS-handshake and
// response-header timeouts so a black-holed daemon fails the call in
// seconds instead of stalling forever — but deliberately no global
// request timeout: jobs run for as long as their simulations take, and
// the NDJSON wait path holds one response open for the whole job. Bound
// individual calls with their contexts. Transient connect errors retry
// with jittered exponential backoff (see MaxRetries).
func New(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc: &http.Client{
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   5 * time.Second,
					KeepAlive: 30 * time.Second,
				}).DialContext,
				TLSHandshakeTimeout: 5 * time.Second,
				// Every endpoint writes its headers immediately — even the
				// events stream flushes the current state first — so waiting
				// longer than this means the daemon is wedged, not working.
				ResponseHeaderTimeout: 60 * time.Second,
				MaxIdleConnsPerHost:   16,
				IdleConnTimeout:       90 * time.Second,
			},
		},
	}
}

// URL returns the daemon base URL the client talks to.
func (c *Client) URL() string { return c.base }

// send performs one HTTP round trip with the shared request policy:
// per-client headers applied, the context's request ID stamped on the
// wire (so one logical operation correlates across daemons), and
// transient connect errors retried with jittered exponential backoff.
// Reaching the daemon ends retrying — a received response is returned
// whatever its status, so a non-idempotent submit is never replayed
// after the daemon accepted it. When retries were needed, the final
// error says how many attempts were made.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	for k, vs := range c.Header {
		req.Header[k] = append([]string(nil), vs...)
	}
	if req.Header.Get(obs.RequestIDHeader) == "" {
		if id := obs.RequestIDFrom(req.Context()); id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
		}
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = defaultRetries
	}
	base := c.RetryBackoff
	if base <= 0 {
		base = defaultRetryBase
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		r := req
		if attempt > 0 {
			// Do closes the request body even on connect failure; rebuild
			// it for the retry (NewRequestWithContext fills GetBody for
			// the in-memory readers every call here uses).
			r = req.Clone(req.Context())
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				r.Body = body
			}
		}
		resp, err := c.hc.Do(r)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= retries || !transientConnectError(err) || req.Context().Err() != nil {
			if attempt > 0 {
				return nil, fmt.Errorf("client: %d attempts failed: %w", attempt+1, lastErr)
			}
			return nil, lastErr
		}
		// Jittered exponential backoff: base << attempt, scaled by a
		// uniform factor in [0.5, 1.5).
		delay := time.Duration(float64(base<<attempt) * (0.5 + rand.Float64()))
		if c.OnRetry != nil {
			c.OnRetry(attempt+1, delay, err)
		}
		if c.Logger != nil {
			c.Logger.Warn("retrying request",
				"req_id", req.Header.Get(obs.RequestIDHeader),
				"method", req.Method, "url", req.URL.String(),
				"attempt", attempt+1, "wait", delay.String(), "error", err.Error())
		}
		select {
		case <-req.Context().Done():
			if attempt > 0 {
				return nil, fmt.Errorf("client: %d attempts failed: %w", attempt+1, lastErr)
			}
			return nil, lastErr
		case <-time.After(delay):
		}
	}
}

// transientConnectError reports whether err is a connect-level failure
// worth retrying: the request never reached a daemon, so replaying it is
// safe. Timeouts on an established exchange (a genuinely wedged daemon)
// and every delivered response are not retried.
func transientConnectError(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return true
	}
	return false
}

// apiError is a non-2xx daemon response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("unisonserved: %s (status %d)", e.Msg, e.Status)
}

// open sends one request, with in (when non-nil) as its JSON body, and
// returns the response still open when the daemon answers 2xx, else an
// *apiError carrying the status and the daemon's message.
func (c *Client) open(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp, nil
	}
	defer resp.Body.Close()
	// The status is the daemon's answer; a body cut short only shortens
	// the message.
	data, _ := io.ReadAll(resp.Body)
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return nil, &apiError{Status: resp.StatusCode, Msg: eb.Error}
	}
	return nil, &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
}

// do performs one JSON round trip: in (when non-nil) is the request
// body, out (when non-nil) receives the decoded 2xx response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.open(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if out != nil {
		if j, ok := out.(*Job); ok {
			err = decodeJob(data, j)
		} else {
			err = json.Unmarshal(data, out)
		}
		if err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// readNDJSON decodes one T per NDJSON line of an open response and hands
// each to fn, in order, until the daemon ends the stream; it closes the
// body.
func readNDJSON[T any](resp *http.Response, fn func(T)) error {
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var v T
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		fn(v)
	}
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches /metrics and parses the flat exposition into a
// name → value map (comment lines skipped).
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.open(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, nil
}

// LookupResult fetches a cached result by run key from the daemon's
// result cache and store — a pure lookup that never triggers execution.
// ok=false means the daemon doesn't have it (HTTP 404).
func (c *Client) LookupResult(ctx context.Context, key string) (uc.Result, bool, error) {
	var res uc.Result
	err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil, &res)
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return uc.Result{}, false, nil
		}
		return uc.Result{}, false, err
	}
	return res, true, nil
}

// SubmitRun submits one Run and returns the job record — already
// terminal (with Result populated) when the daemon answered from its
// cache.
func (c *Client) SubmitRun(ctx context.Context, run uc.Run) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodPost, "/v1/runs", RunRequest{Run: run}, &j)
	return j, err
}

// Job fetches one job snapshot.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Cancel cancels a job (a queued job never executes; a running one ends
// canceled once its execution returns) and returns the current snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot (result included). It follows the NDJSON event stream
// — no polling while the connection holds — and falls back to polling if
// the stream drops. The final snapshot is fetched the moment the
// terminal event arrives; the daemon retains finished jobs for its
// -job-history depth (1024 by default), so only that many other jobs
// finishing in between could evict the record first (surfaced as a
// not-found error, never a silent loss).
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	for {
		terminal, err := c.followEvents(ctx, id)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Job{}, ctxErr
		}
		if err == nil && terminal {
			return c.Job(ctx, id)
		}
		// Stream ended early or never opened: resnapshot, maybe retry.
		j, jerr := c.Job(ctx, id)
		if jerr != nil {
			return Job{}, jerr
		}
		if j.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// followEvents consumes the event stream until the daemon closes it and
// reports whether its last event was terminal.
func (c *Client) followEvents(ctx context.Context, id string) (bool, error) {
	resp, err := c.open(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	terminal := false
	err = readNDJSON(resp, func(e Event) { terminal = Job{State: e.State}.Terminal() })
	return terminal, err
}

// Telemetry follows the job's epoch timeline stream
// (GET /v1/jobs/{id}/telemetry), invoking fn per TimelineEpoch in order
// — live while the job runs, replayed from the job record once it
// finished. It returns when the daemon closes the stream (the job turned
// terminal and every epoch was delivered) or on transport error; a job
// without telemetry returns immediately with no calls.
func (c *Client) Telemetry(ctx context.Context, id string, fn func(uc.TimelineEpoch)) error {
	resp, err := c.open(ctx, http.MethodGet, "/v1/jobs/"+id+"/telemetry", nil)
	if err != nil {
		return err
	}
	return readNDJSON(resp, fn)
}

// CollectTelemetry follows the job's telemetry stream to completion and
// returns its epochs in order.
func (c *Client) CollectTelemetry(ctx context.Context, id string) ([]uc.TimelineEpoch, error) {
	var out []uc.TimelineEpoch
	err := c.Telemetry(ctx, id, func(e uc.TimelineEpoch) { out = append(out, e) })
	return out, err
}

// Execute runs one simulation through the service: submit, wait for the
// terminal state, and unwrap the result, turning a failed or canceled job
// into an error. The whole operation — submit, wait, fetch, any retries —
// shares one request ID (minted here unless the context already carries
// one), so it reads as a single trace in the daemons' logs.
func (c *Client) Execute(ctx context.Context, run uc.Run) (uc.Result, error) {
	ctx, _ = obs.EnsureRequestID(ctx)
	j, err := c.SubmitRun(ctx, run)
	if err == nil && !j.Terminal() {
		j, err = c.Wait(ctx, j.ID)
	}
	switch {
	case err != nil:
		return uc.Result{}, err
	case j.State == StateCanceled:
		return uc.Result{}, fmt.Errorf("unisonserved: job %s canceled", j.ID)
	case j.State != StateDone:
		return uc.Result{}, fmt.Errorf("unisonserved: job %s failed: %s", j.ID, j.Error)
	case j.Result == nil:
		return uc.Result{}, fmt.Errorf("unisonserved: job %s done without a result", j.ID)
	}
	return *j.Result, nil
}
