package serve

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
)

// fakeTimeline builds a small deterministic epoch timeline for a run.
func fakeTimeline(r uc.Run) *uc.Timeline {
	tl := &uc.Timeline{EpochEvents: r.Telemetry.EpochEvents}
	for i := 0; i < 3; i++ {
		tl.Epochs = append(tl.Epochs, uc.TimelineEpoch{
			Index:        i,
			StartEvents:  i * r.Telemetry.EpochEvents,
			EndEvents:    (i + 1) * r.Telemetry.EpochEvents,
			Instructions: uint64(100 * (i + 1)),
			Reads:        uint64(10 + i),
			ReadHits:     uint64(i),
		})
	}
	return tl
}

// fakeExecuteTelemetry is fakeExecute plus a timeline when the run asks
// for telemetry. A Config.Execute override cannot emit epochs live, so
// this exercises the terminal-backfill path: the daemon must still
// deliver the whole timeline over the stream.
func fakeExecuteTelemetry(r uc.Run) (uc.Result, error) {
	res, err := fakeExecute(r)
	if err == nil && r.Telemetry.Enabled() {
		res.Timeline = fakeTimeline(r)
	}
	return res, err
}

// submitRun posts one run and returns the accepted job snapshot.
func submitRun(t *testing.T, ts *httptest.Server, run uc.Run) client.Job {
	t.Helper()
	var j client.Job
	post(t, ts, "/v1/runs", mustJSON(t, client.RunRequest{Run: run}), &j)
	if j.ID == "" {
		t.Fatal("submission returned no job ID")
	}
	return j
}

// TestServeTelemetryStream: GET /v1/jobs/{id}/telemetry replays the
// job's epoch timeline as NDJSON — for a freshly simulated job, for a
// finished job re-read later, and for a cached fast-path submission that
// never queued — and the epochs counter on /metrics accounts each one.
func TestServeTelemetryStream(t *testing.T) {
	s := New(Config{Execute: fakeExecuteTelemetry})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	run := smallRun(uc.DesignUnison)
	run.Telemetry = uc.TelemetrySpec{EpochEvents: 500}
	want := fakeTimeline(run).Epochs

	j := submitRun(t, ts, run)
	waitJob(t, ts, j.ID)
	epochs, err := cl.CollectTelemetry(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs, want) {
		t.Errorf("streamed epochs = %+v, want %+v", epochs, want)
	}

	// Re-reading a finished job replays the identical timeline.
	again, err := cl.CollectTelemetry(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("replayed epochs = %+v, want %+v", again, want)
	}

	// A repeat submission answers from the cache — terminal on arrival —
	// and its job streams the backfilled timeline all the same.
	j2 := submitRun(t, ts, run)
	if !j2.Terminal() {
		waitJob(t, ts, j2.ID)
	}
	cached, err := cl.CollectTelemetry(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Errorf("cached-submission epochs = %+v, want %+v", cached, want)
	}

	// A job without telemetry yields an empty stream, not an error.
	plain := submitRun(t, ts, smallRun(uc.DesignAlloy))
	waitJob(t, ts, plain.ID)
	none, err := cl.CollectTelemetry(ctx, plain.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("telemetry-free job streamed %d epochs", len(none))
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One simulated delivery plus one cached backfill, 3 epochs each.
	if got := m["unisonserved_telemetry_epochs_total"]; got != 6 {
		t.Errorf("unisonserved_telemetry_epochs_total = %v, want 6", got)
	}
}

// TestServeTelemetryLiveMatchesResult runs the real engine through the
// daemon: the streamed epochs (emitted live by the simulation) must
// equal the finished Result's assembled timeline exactly, and the stream
// must terminate on its own after the terminal drain.
func TestServeTelemetryLiveMatchesResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped in -short")
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	run := smallRun(uc.DesignUnison)
	run.Telemetry = uc.TelemetrySpec{EpochEvents: 200}
	j := submitRun(t, ts, run)

	// Open the stream while the job may still be queued or running: the
	// handler must hold it open and drain every epoch before EOF.
	streamed, err := cl.CollectTelemetry(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ts, j.ID)
	if final.State != client.StateDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Timeline == nil {
		t.Fatal("telemetry run finished without a timeline on its result")
	}
	if !reflect.DeepEqual(streamed, final.Result.Timeline.Epochs) {
		t.Errorf("streamed %d epochs differ from the result timeline's %d",
			len(streamed), len(final.Result.Timeline.Epochs))
	}
}
