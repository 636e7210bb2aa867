package client_test

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/serve"
)

// flakyListener force-resets the first n accepted connections, so the
// client sees ECONNRESET before the request reaches any handler —
// exactly the transient class the retry policy targets.
type flakyListener struct {
	net.Listener
	n     int32
	drops int32
}

func (f *flakyListener) Accept() (net.Conn, error) {
	for {
		c, err := f.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if atomic.AddInt32(&f.n, 1) <= f.drops {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0) // RST, not FIN
			}
			c.Close()
			continue
		}
		return c, nil
	}
}

// TestClientRetriesTransientConnectErrors: the first two connections are
// reset at the TCP level; the client must retry with backoff and the
// third attempt must carry the full POST body again (the rewind path) so
// the submit succeeds end to end.
func TestClientRetriesTransientConnectErrors(t *testing.T) {
	s := serve.New(serve.Config{Execute: fakeExecute})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = &flakyListener{Listener: ts.Listener, drops: 2}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})

	cl := client.New(ts.URL)
	cl.RetryBackoff = time.Millisecond
	var retries []int
	cl.OnRetry = func(attempt int, wait time.Duration, err error) {
		if wait <= 0 || err == nil {
			t.Errorf("OnRetry(%d, %v, %v): bad arguments", attempt, wait, err)
		}
		retries = append(retries, attempt)
	}
	var logBuf syncBuffer
	cl.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	got, err := cl.Execute(context.Background(), run("web-search", uc.DesignUnison))
	if err != nil {
		t.Fatalf("Execute through flaky transport: %v", err)
	}
	want, _ := fakeExecute(run("web-search", uc.DesignUnison))
	if got.UIPC != want.UIPC {
		t.Fatalf("retried submit returned UIPC %v, want %v", got.UIPC, want.UIPC)
	}
	if len(retries) < 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("OnRetry attempts = %v, want [1 2 ...]", retries)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "retrying request") || !strings.Contains(logged, `"attempt":1`) {
		t.Errorf("retry log missing attempts:\n%s", logged)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClientRetryExhaustionCountsAttempts: when every attempt fails, the
// final error reports how many were made.
func TestClientRetryExhaustionCountsAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()

	cl := client.New(addr)
	cl.MaxRetries = 2
	cl.RetryBackoff = time.Millisecond
	_, err = cl.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a closed port succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("exhaustion error %q does not count the 3 attempts", err)
	}
}

// TestClientRetryDisabled: MaxRetries < 0 turns the policy off — a dead
// daemon fails the call on the first connect error instead of backing
// off.
func TestClientRetryDisabled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()

	cl := client.New(addr)
	cl.MaxRetries = -1
	cl.RetryBackoff = time.Hour // would hang the test if a retry slept
	start := time.Now()
	if _, err := cl.Health(context.Background()); err == nil {
		t.Fatal("Health against a closed port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("disabled retry still waited %v", elapsed)
	}
}

// TestClusterFanoutAndFailover: a three-member cluster where one member
// is a closed port. A plan whose Executor calls Cluster.Execute must
// spread the points over the live nodes (failing over past the dead one)
// and return results in point order, matching the in-process execution
// exactly.
func TestClusterFanoutAndFailover(t *testing.T) {
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Execute: fakeExecute})
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, ts)
		addrs = append(addrs, ts.URL)
		t.Cleanup(func() {
			ts.Close()
			s.Drain(context.Background())
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	addrs = append(addrs, dead)

	cl, err := client.NewCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Node(dead).MaxRetries = -1 // fail over fast in the test

	var points []uc.Run
	for i := 0; i < 9; i++ {
		p := run("web-search", uc.DesignUnison)
		p.Capacity = uint64(i+1) << 20
		points = append(points, p)
	}
	got, err := uc.ExecuteMany(uc.Plan{Points: points, Executor: func(r uc.Run) (uc.Result, error) {
		return cl.Execute(context.Background(), r)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) {
		t.Fatalf("got %d results for %d points", len(got), len(points))
	}
	for i, p := range points {
		want, _ := fakeExecute(p)
		if got[i].UIPC != want.UIPC {
			t.Fatalf("point %d: UIPC %v, want %v", i, got[i].UIPC, want.UIPC)
		}
	}

	// The single-run path fails over too, whichever member owns the key.
	if _, err := cl.Execute(context.Background(), points[0]); err != nil {
		t.Fatalf("Execute with a dead member: %v", err)
	}
	// Health must report the dead member.
	if _, err := cl.Health(context.Background()); err == nil {
		t.Fatal("cluster Health ignored a dead member")
	}
}
