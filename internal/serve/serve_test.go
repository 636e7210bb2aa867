package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/client"
)

// post submits body to path and decodes the response JSON into v,
// returning the status code.
func post(t *testing.T, ts *httptest.Server, path, body string, v any) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// getJob fetches one job snapshot.
func getJob(t *testing.T, ts *httptest.Server, id string) client.Job {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j client.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// waitJob polls until the job is terminal.
func waitJob(t *testing.T, ts *httptest.Server, id string) client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts, id)
		if j.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 60s", id, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mustJSON is the bit-identity comparator: Go floats marshal to their
// shortest round-trip form, so equal JSON bytes mean equal bits.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fakeExecute returns a deterministic, run-dependent fake result without
// simulating. UIPC is kept nonzero so speedup assembly works.
func fakeExecute(r uc.Run) (uc.Result, error) {
	res := uc.Result{Run: r}
	res.UIPC = 1 + float64(len(r.Workload)) + float64(r.Capacity%97)
	if r.Design == uc.DesignNone {
		res.UIPC = 2
	}
	res.Instructions = r.Capacity
	return res, nil
}

// smallRun is the shared tiny-but-real simulation configuration.
func smallRun(design uc.DesignKind) uc.Run {
	return uc.Run{
		Workload:        "web-search",
		Design:          design,
		Capacity:        256 << 20,
		Cores:           2,
		AccessesPerCore: 4_000,
	}
}

// TestServeRunBitIdentical: a Run through the HTTP service returns a
// Result bit-identical to a direct Execute call.
func TestServeRunBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	run := smallRun(uc.DesignUnison)
	want, err := uc.Execute(run)
	if err != nil {
		t.Fatal(err)
	}

	var j client.Job
	if code := post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	j = waitJob(t, ts, j.ID)
	if j.State != client.StateDone || j.Result == nil {
		t.Fatalf("job = %+v, want done with result", j)
	}
	if got, want := mustJSON(t, *j.Result), mustJSON(t, want); got != want {
		t.Errorf("service result diverges from direct Execute\n got: %s\nwant: %s", got, want)
	}

	// Resubmission: same Run, bit-identical again, zero new executions.
	var j2 client.Job
	if code := post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j2); code != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200 (synchronous)", code)
	}
	if j2.State != client.StateDone || j2.Result == nil || j2.CacheHits != 1 {
		t.Fatalf("cached job = %+v, want done with result from cache", j2)
	}
	if got, want := mustJSON(t, *j2.Result), mustJSON(t, want); got != want {
		t.Errorf("cached result diverges from direct Execute")
	}
	if hits := s.m.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := s.m.cacheMisses.Load(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

// TestServeSegmentedParity: a time-parallel run submitted through the
// daemon returns Results bit-identical to the serial daemon run. Two
// segmented passes are exercised — the first populates the boundary
// snapshots serially, so a second daemon (its result cache empty, the
// process-wide snapshot store warm) takes the concurrent path.
func TestServeSegmentedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	serial := smallRun(uc.DesignUnison)
	segmented := serial
	segmented.Segments = 3

	submit := func(s *Server, ts *httptest.Server, run uc.Run) uc.Result {
		var j client.Job
		if code := post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j); code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		j = waitJob(t, ts, j.ID)
		if j.State != client.StateDone || j.Result == nil {
			t.Fatalf("job = %+v, want done with result", j)
		}
		return *j.Result
	}

	s1 := New(Config{})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	defer s1.Drain(context.Background())

	want := submit(s1, ts1, serial)
	first := submit(s1, ts1, segmented) // snapshot store cold: serial-with-save

	s2 := New(Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Drain(context.Background())

	second := submit(s2, ts2, segmented) // snapshot store warm: concurrent segments

	for name, got := range map[string]uc.Result{"serial-with-save": first, "parallel": second} {
		if got.Run.Segments != 3 {
			t.Errorf("%s: echoed Segments = %d, want 3", name, got.Run.Segments)
		}
		got.Run.Segments = 0
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("%s segmented result diverges from serial\n got: %s\nwant: %s", name, g, w)
		}
	}
}

// TestServeConcurrentDedup: concurrent identical submissions collapse
// onto one execution; every caller gets the same result.
func TestServeConcurrentDedup(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int32
	s := New(Config{
		Workers: 8,
		Execute: func(r uc.Run) (uc.Result, error) {
			executions.Add(1)
			<-release
			return fakeExecute(r)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	run := smallRun(uc.DesignUnison)
	const callers = 6
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var j client.Job
			post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j)
			ids[i] = j.ID
		}()
	}
	wg.Wait()
	// Let the workers pick everything up, then release the one execution.
	for deadline := time.Now().Add(10 * time.Second); executions.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no execution started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)

	wantRes, _ := fakeExecute(run)
	for _, id := range ids {
		j := waitJob(t, ts, id)
		if j.State != client.StateDone || j.Result == nil {
			t.Fatalf("job %s = %+v, want done", id, j)
		}
		if got := mustJSON(t, *j.Result); got != mustJSON(t, wantRes) {
			t.Errorf("job %s result diverges", id)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("identical concurrent submissions executed %d times, want 1", n)
	}
	if s.m.coalesced.Load()+s.m.cacheHits.Load() != callers-1 {
		t.Errorf("coalesced %d + hits %d, want %d total", s.m.coalesced.Load(), s.m.cacheHits.Load(), callers-1)
	}
}

// TestServeSweepSharesCacheAcrossRequests: a second sweep whose points
// were all executed by an earlier request is served entirely from cache.
func TestServeSweepSharesCacheAcrossRequests(t *testing.T) {
	var executions atomic.Int32
	s := New(Config{
		Execute: func(r uc.Run) (uc.Result, error) {
			executions.Add(1)
			return fakeExecute(r)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	points := []uc.Run{smallRun(uc.DesignUnison), smallRun(uc.DesignAlloy)}
	body := `{"points":` + mustJSON(t, points) + `,"mode":"speedup"}`
	var j client.Job
	post(t, ts, "/v1/sweeps", body, &j)
	first := waitJob(t, ts, j.ID)
	if first.State != client.StateDone {
		t.Fatalf("first sweep: %+v", first)
	}
	// 2 design points + 1 shared memoized baseline.
	if n := executions.Load(); n != 3 {
		t.Fatalf("first sweep executed %d runs, want 3", n)
	}

	post(t, ts, "/v1/sweeps", body, &j)
	second := waitJob(t, ts, j.ID)
	if second.State != client.StateDone {
		t.Fatalf("second sweep: %+v", second)
	}
	if n := executions.Load(); n != 3 {
		t.Errorf("cached resubmission executed %d new runs, want 0", n-3)
	}
	if second.CacheHits != 3 {
		t.Errorf("second sweep cache hits = %d, want 3", second.CacheHits)
	}
	if got, want := mustJSON(t, second.Speedups), mustJSON(t, first.Speedups); got != want {
		t.Errorf("cached sweep result diverges from first execution")
	}
}

// TestServeEventsStream: the NDJSON stream opens with the current state
// and ends with the terminal line.
func TestServeEventsStream(t *testing.T) {
	s := New(Config{Execute: fakeExecute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	points := []uc.Run{smallRun(uc.DesignUnison), smallRun(uc.DesignAlloy), smallRun(uc.DesignFootprint)}
	var j client.Job
	post(t, ts, "/v1/sweeps", `{"points":`+mustJSON(t, points)+`}`, &j)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var events []client.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var e client.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.State != client.StateDone {
		t.Fatalf("last event %+v, want done", last)
	}
	if last.Done != 3 {
		t.Errorf("final done = %d, want 3 executions", last.Done)
	}
}

// probe fetches a health endpoint and returns its status and payload.
func probe(t *testing.T, ts *httptest.Server, path string) (int, client.Health) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h client.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, h
}

// TestServeDrain: draining rejects new submissions with 503, finishes
// accepted jobs, and flips /healthz to 503 while /livez keeps answering
// 200.
func TestServeDrain(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Execute: func(r uc.Run) (uc.Result, error) {
			<-release
			return fakeExecute(r)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/livez", "/healthz"} {
		if code, h := probe(t, ts, path); code != http.StatusOK || !h.Ready || h.Draining || h.Status != "ok" {
			t.Errorf("%s before drain = %d %+v, want 200 ready", path, code, h)
		}
	}

	run := smallRun(uc.DesignUnison)
	var j client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); !s.draining.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	var errBody struct {
		Error string `json:"error"`
	}
	if code := post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	if errBody.Error == "" {
		t.Error("draining rejection has no error message")
	}

	if code, h := probe(t, ts, "/healthz"); code != http.StatusServiceUnavailable || h.Ready || !h.Draining || h.Status != "draining" {
		t.Errorf("healthz during drain = %d %+v, want 503 draining", code, h)
	}
	if code, h := probe(t, ts, "/livez"); code != http.StatusOK || h.Ready || !h.Draining {
		t.Errorf("livez during drain = %d %+v, want 200, ready false, draining", code, h)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := waitJob(t, ts, j.ID); got.State != client.StateDone {
		t.Errorf("accepted job after drain = %q, want done (drain must not abandon accepted work)", got.State)
	}
}

// TestServeCancel: canceling a queued job yields state canceled without
// executing it.
func TestServeCancel(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int32
	s := New(Config{
		Workers: 1,
		Execute: func(r uc.Run) (uc.Result, error) {
			executions.Add(1)
			<-release
			return fakeExecute(r)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	// First job occupies the single worker; second sits queued.
	var blocker, queued client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignUnison))+`}`, &blocker)
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignAlloy))+`}`, &queued)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	close(release)

	if got := waitJob(t, ts, queued.ID); got.State != client.StateCanceled {
		t.Fatalf("canceled job state = %q, want canceled", got.State)
	}
	if got := waitJob(t, ts, blocker.ID); got.State != client.StateDone {
		t.Fatalf("blocker state = %q, want done", got.State)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("%d executions, want 1 (canceled job must not run)", n)
	}
}

// TestServeJobHistoryBounded: finished jobs age out of the registry
// beyond JobHistory, so a long-running daemon cannot accumulate every
// historical result payload.
func TestServeJobHistoryBounded(t *testing.T) {
	s := New(Config{Execute: fakeExecute, JobHistory: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	designs := []uc.DesignKind{uc.DesignUnison, uc.DesignAlloy, uc.DesignFootprint}
	ids := make([]string, len(designs))
	for i, d := range designs {
		var j client.Job
		post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(d))+`}`, &j)
		waitJob(t, ts, j.ID)
		ids[i] = j.ID
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job still queryable (status %d), want evicted past JobHistory=2", resp.StatusCode)
	}
	if j := getJob(t, ts, ids[2]); j.State != client.StateDone {
		t.Errorf("newest job lost: %+v", j)
	}
}

// TestServeMetricsEndpoint: the exposition includes the cache counters.
func TestServeMetricsEndpoint(t *testing.T) {
	s := New(Config{Execute: fakeExecute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	run := smallRun(uc.DesignUnison)
	var j client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j)
	waitJob(t, ts, j.ID)
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, run)+`}`, &j)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"unisonserved_cache_hits_total 1",
		"unisonserved_cache_misses_total 1",
		"unisonserved_jobs_submitted_total 2",
		"unisonserved_cache_entries 1",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, data)
		}
	}
}

// TestServeDecodeErrors: malformed submissions fail with 400 and
// actionable messages.
func TestServeDecodeErrors(t *testing.T) {
	s := New(Config{Execute: fakeExecute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	cases := []struct {
		name, path, body, wantSub string
	}{
		{"unknown field", "/v1/runs", `{"run":{"Workload":"web-search","Capasity":1}}`, "Capasity"},
		{"unknown design", "/v1/runs", `{"run":{"Workload":"web-search","Design":"unicorn"}}`, `unknown design "unicorn"`},
		{"unknown workload", "/v1/runs", `{"run":{"Workload":"web-serch"}}`, `unknown workload "web-serch"`},
		{"bad mode", "/v1/sweeps", `{"points":[{"Workload":"web-search"}],"mode":"turbo"}`, `unknown mode "turbo"`},
		{"speedup sweep with sample", "/v1/sweeps", `{"points":[{"Workload":"web-search"}],"mode":"speedup","sample":{"IntervalEvents":100}}`, `unknown field "sample"`},
		{"empty points", "/v1/sweeps", `{"points":[]}`, "empty points"},
		{"not json", "/v1/runs", `hello`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody struct {
				Error string `json:"error"`
			}
			code := post(t, ts, tc.path, tc.body, &errBody)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(errBody.Error, tc.wantSub) {
				t.Errorf("error %q does not mention %q", errBody.Error, tc.wantSub)
			}
		})
	}

	// Unknown job id → 404.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestServeRejectsRunSizes: a submitted run whose size Execute rejects —
// a negative AccessesPerCore, more cores than a capture may hold, a
// simulated capacity (Capacity/ScaleDivisor) beyond 8 GB, one-event
// epochs or sampling windows over billions of events — ends failed with
// an error naming the field, and the result cache stays empty.
func TestServeRejectsRunSizes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	for field, mut := range map[string]func(*uc.Run){
		"AccessesPerCore":       func(r *uc.Run) { r.AccessesPerCore = -5 },
		"Cores":                 func(r *uc.Run) { r.Cores = 5000 },
		"Capacity/ScaleDivisor": func(r *uc.Run) { r.Design, r.Capacity, r.ScaleDivisor = uc.DesignAlloy, 1<<40, 1 },
		"Telemetry.EpochEvents": func(r *uc.Run) {
			r.AccessesPerCore, r.Telemetry = 3_000_000_000, uc.TelemetrySpec{EpochEvents: 1}
		},
		"Sampling.IntervalEvents": func(r *uc.Run) {
			r.AccessesPerCore, r.Sampling = 3_000_000_000, uc.SampleSpec{WarmupFrac: -1, IntervalEvents: 1, GapEvents: -1}
		},
	} {
		r := smallRun(uc.DesignUnison)
		mut(&r)
		var j client.Job
		if code := post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, r)+`}`, &j); code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", field, code)
		}
		j = waitJob(t, ts, j.ID)
		if j.State != client.StateFailed || !strings.Contains(j.Error, field) {
			t.Errorf("%s: job ended %s with error %q, want failed naming the field", field, j.State, j.Error)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("result cache holds %d entries after the failed runs, want 0", n)
	}
}
