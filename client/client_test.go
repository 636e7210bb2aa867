package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/serve"
)

// fakeExecute mirrors the serve tests' deterministic fake.
func fakeExecute(r uc.Run) (uc.Result, error) {
	if r.Workload == "software-testing" {
		return uc.Result{}, errors.New("synthetic failure")
	}
	res := uc.Result{Run: r}
	res.UIPC = 1 + float64(len(r.Workload)) + float64(r.Capacity%97)
	if r.Design == uc.DesignNone {
		res.UIPC = 2
	}
	return res, nil
}

// newFake starts a fake-execution daemon and a client on it.
func newFake(t *testing.T) (*client.Client, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Execute: fakeExecute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return client.New(ts.URL), ts
}

func run(w string, d uc.DesignKind) uc.Run {
	return uc.Run{Workload: w, Design: d, Capacity: 256 << 20, Cores: 2, AccessesPerCore: 4_000}
}

// TestClientExecute: submit → event-stream wait → result unwrap, and the
// cached resubmission path.
func TestClientExecute(t *testing.T) {
	cl, _ := newFake(t)
	ctx := context.Background()

	want, _ := fakeExecute(run("web-search", uc.DesignUnison))
	got, err := cl.Execute(ctx, run("web-search", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("Execute = %s, want %s", gb, wb)
	}

	// Cached resubmission: SubmitRun comes back already terminal.
	j, err := cl.SubmitRun(ctx, run("web-search", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	if !j.Terminal() || j.Result == nil || j.CacheHits != 1 {
		t.Fatalf("cached submit = %+v, want synchronously-done job", j)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["unisonserved_cache_hits_total"] != 1 || m["unisonserved_cache_misses_total"] != 1 {
		t.Errorf("metrics = %v, want 1 hit / 1 miss", m)
	}
}

// TestClientSweeps: ExecuteMany and SpeedupMany over a Plan whose
// Executor calls Client.Execute return point-ordered results matching the
// in-process engine run over the same fake.
func TestClientSweeps(t *testing.T) {
	cl, _ := newFake(t)
	ctx := context.Background()
	points := []uc.Run{
		run("web-search", uc.DesignUnison),
		run("web-search", uc.DesignAlloy),
		run("data-serving", uc.DesignUnison),
	}
	local := uc.Plan{Points: points, Executor: fakeExecute}
	served := uc.Plan{Points: points, Executor: func(r uc.Run) (uc.Result, error) { return cl.Execute(ctx, r) }}

	wantRes, err := uc.ExecuteMany(local)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := uc.ExecuteMany(served)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(wantRes)
	gb, _ := json.Marshal(gotRes)
	if string(wb) != string(gb) {
		t.Fatalf("ExecuteMany diverges:\n got %s\nwant %s", gb, wb)
	}

	wantSp, err := uc.SpeedupMany(local)
	if err != nil {
		t.Fatal(err)
	}
	gotSp, err := uc.SpeedupMany(served)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ = json.Marshal(wantSp)
	gb, _ = json.Marshal(gotSp)
	if string(wb) != string(gb) {
		t.Fatalf("SpeedupMany diverges:\n got %s\nwant %s", gb, wb)
	}
}

// TestClientErrors: failed jobs, decode rejections and health surface as
// useful errors.
func TestClientErrors(t *testing.T) {
	cl, _ := newFake(t)
	ctx := context.Background()

	// software-testing makes the fake fail → job fails → Execute errors.
	_, err := cl.Execute(ctx, run("software-testing", uc.DesignUnison))
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("failed-job error = %v, want the execution failure", err)
	}

	// A bad design is rejected at submit time with the server's message.
	_, err = cl.Execute(ctx, run("web-search", "unicorn"))
	if err == nil || !strings.Contains(err.Error(), `unknown design "unicorn"`) {
		t.Errorf("decode-reject error = %v", err)
	}

	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" || h.Draining {
		t.Errorf("Health = %+v, %v", h, err)
	}

	if _, err := cl.Job(ctx, "nope"); err == nil {
		t.Error("Job(nope) succeeded, want 404 error")
	}
}

// TestClientWaitCancel: a canceled job turns into an error, not a hang.
func TestClientWaitCancel(t *testing.T) {
	release := make(chan struct{})
	s := serve.New(serve.Config{
		Workers: 1,
		Execute: func(r uc.Run) (uc.Result, error) {
			<-release
			return fakeExecute(r)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	cl := client.New(ts.URL)
	ctx := context.Background()

	blocker, err := cl.SubmitRun(ctx, run("web-search", uc.DesignUnison))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.SubmitRun(ctx, run("web-search", uc.DesignAlloy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Execute(ctx, run("web-search", uc.DesignFootprint))
		done <- err
	}()
	j, err := cl.Wait(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != client.StateCanceled {
		t.Errorf("canceled job state %q", j.State)
	}
	close(release) // unblock the blocker and everything behind it
	if err := <-done; err != nil {
		t.Errorf("Execute behind the queue: %v", err)
	}
	if b, err := cl.Wait(ctx, blocker.ID); err != nil || b.State != client.StateDone {
		t.Errorf("blocker = %+v, %v; want done", b, err)
	}
}
