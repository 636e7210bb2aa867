package serve

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/cluster"
	"unisoncache/internal/obs"
	"unisoncache/internal/store"
)

// logBuffer is a mutex-guarded writer capturing a node's structured
// logs for grepping.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// cnode is one in-process cluster member.
type cnode struct {
	ts      *httptest.Server
	s       *Server
	url     string
	execs   atomic.Int64  // simulations this node actually ran
	handler *atomic.Value // swap target, so URLs exist before Servers
	logs    *logBuffer    // the node's JSON structured log
}

// startCluster brings up n daemons sharing one ring. Listeners start
// first behind swappable handlers — the member URLs must exist before
// any Server can be configured with them. dirs, when non-nil, gives
// each node a persistent store. Returns the nodes; use restart() to
// bounce one.
func startCluster(t *testing.T, n int, dirs []string) []*cnode {
	t.Helper()
	nodes := make([]*cnode, n)
	urls := make([]string, n)
	for i := range nodes {
		nd := &cnode{handler: &atomic.Value{}}
		nd.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := nd.handler.Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		nd.url = nd.ts.URL
		urls[i] = nd.ts.URL
		nodes[i] = nd
		t.Cleanup(nd.ts.Close)
	}
	for i := range nodes {
		nodes[i].boot(t, urls, dirs)
	}
	return nodes
}

// boot builds (or rebuilds) the node's Server, reopening its store.
func (nd *cnode) boot(t *testing.T, urls, dirs []string) {
	t.Helper()
	var st *store.Store
	if dirs != nil {
		var err error
		for i, u := range urls {
			if u == nd.url {
				st, err = store.Open(dirs[i], store.Options{})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	nd.logs = &logBuffer{}
	lg, err := obs.NewLogger(nd.logs, obs.LogJSON, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Self:   nd.url,
		Peers:  urls,
		Store:  st,
		Logger: lg,
		Execute: func(r uc.Run) (uc.Result, error) {
			nd.execs.Add(1)
			return fakeExecute(r)
		},
	})
	nd.s = s
	nd.handler.Store(s.Handler())
	t.Cleanup(func() {
		s.Drain(context.Background())
		if st != nil {
			st.Close()
		}
	})
}

// ownerIndex finds which node the ring assigns the key to.
func ownerIndex(t *testing.T, nodes []*cnode, key string) int {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	owner := cluster.New(urls, 0).Owner(key)
	for i, nd := range nodes {
		if nd.url == owner {
			return i
		}
	}
	t.Fatalf("owner %s not among nodes", owner)
	return -1
}

func mustKey(t *testing.T, r uc.Run) string {
	t.Helper()
	key, err := uc.RunKey(r)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestServeClusterRouting: a run submitted to a non-owner daemon is
// forwarded to its owner, executes exactly once — on the owner — and
// the forwarding node returns a bit-identical result. A repeat
// submission anywhere is a pure cache hit.
func TestServeClusterRouting(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	point := smallRun(uc.DesignUnison)
	owner := ownerIndex(t, nodes, mustKey(t, point))
	other := (owner + 1) % 3
	ctx := context.Background()

	got, err := client.New(nodes[other].url).Execute(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fakeExecute(point)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("proxied result differs:\n%s\n%s", mustJSON(t, got), mustJSON(t, want))
	}
	for i, nd := range nodes {
		wantExecs := int64(0)
		if i == owner {
			wantExecs = 1
		}
		if nd.execs.Load() != wantExecs {
			t.Errorf("node %d executed %d times, want %d", i, nd.execs.Load(), wantExecs)
		}
	}
	if nodes[other].s.m.proxied.Load() != 1 {
		t.Errorf("forwarding node proxied %d, want 1", nodes[other].s.m.proxied.Load())
	}

	// Repeat submissions are cache hits everywhere they've been seen.
	if _, err := client.New(nodes[other].url).Execute(ctx, point); err != nil {
		t.Fatal(err)
	}
	if total := nodes[0].execs.Load() + nodes[1].execs.Load() + nodes[2].execs.Load(); total != 1 {
		t.Errorf("repeat submission re-executed (total %d)", total)
	}
}

// TestServePeerFill: the owner of a key whose result lives on another
// member fetches it from that peer instead of re-simulating.
func TestServePeerFill(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	point := smallRun(uc.DesignUnison)
	owner := ownerIndex(t, nodes, mustKey(t, point))
	other := (owner + 1) % 3
	ctx := context.Background()

	// Plant the result on a non-owner: a forwarded-marked submission
	// executes locally wherever it lands.
	planted := client.New(nodes[other].url)
	planted.Header = http.Header{forwardedHeader: []string{"1"}}
	if _, err := planted.Execute(ctx, point); err != nil {
		t.Fatal(err)
	}
	if nodes[other].execs.Load() != 1 {
		t.Fatalf("forwarded submission did not execute locally")
	}

	// Now ask the owner: it must fill from the peer, not simulate.
	got, err := client.New(nodes[owner].url).Execute(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fakeExecute(point)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("peer-filled result differs")
	}
	if nodes[owner].execs.Load() != 0 {
		t.Errorf("owner re-simulated despite a peer holding the result")
	}
	if nodes[owner].s.m.peerFills.Load() != 1 {
		t.Errorf("peerFills = %d, want 1", nodes[owner].s.m.peerFills.Load())
	}
}

// TestServeRestartServesFromStore: results survive a daemon restart via
// the persistent store; the restarted daemon answers synchronously from
// disk without re-simulating.
func TestServeRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	mk := func(st *store.Store) *Server {
		return New(Config{Store: st, Execute: func(r uc.Run) (uc.Result, error) {
			execs.Add(1)
			return fakeExecute(r)
		}})
	}
	s := mk(st)
	ts := httptest.NewServer(s.Handler())
	point := smallRun(uc.DesignUnison)
	ctx := context.Background()
	first, err := client.New(ts.URL).Execute(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain(ctx)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := mk(st2)
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain(context.Background())
		st2.Close()
	}()

	// The restarted daemon must answer in one synchronous round trip.
	var j client.Job
	code := post(t, ts2, "/v1/runs", `{"run":`+mustJSON(t, point)+`}`, &j)
	if code != http.StatusOK || j.State != client.StateDone || j.Result == nil {
		t.Fatalf("restarted submit: code %d, state %s", code, j.State)
	}
	if mustJSON(t, *j.Result) != mustJSON(t, first) {
		t.Fatalf("store round trip changed the result bytes")
	}
	if execs.Load() != 1 {
		t.Errorf("executed %d times across the restart, want 1", execs.Load())
	}
	if s2.m.storeHits.Load() != 1 {
		t.Errorf("storeHits = %d, want 1", s2.m.storeHits.Load())
	}
}

// TestServeHeldResult: a result held only in the persistent store answers
// POST /v1/runs and GET /v1/results/{key} without executing. Either way
// it counts one store hit and no cache hit, and moves the result into
// the memory cache, whose next submission counts a cache hit.
func TestServeHeldResult(t *testing.T) {
	run := smallRun(uc.DesignUnison)
	key, err := uc.RunKey(run)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fakeExecute(run)
	blob := mustJSON(t, want)
	body := `{"run":` + mustJSON(t, run) + `}`
	for _, first := range []string{"submit", "lookup"} {
		t.Run(first, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Put(key, []byte(blob)); err != nil {
				t.Fatal(err)
			}
			s := New(Config{Store: st, Execute: func(r uc.Run) (uc.Result, error) {
				t.Errorf("executed %s, which the store holds", r.Design)
				return fakeExecute(r)
			}})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Drain(context.Background())

			if first == "submit" {
				var j client.Job
				if code := post(t, ts, "/v1/runs", body, &j); code != http.StatusOK || j.Result == nil || mustJSON(t, *j.Result) != blob {
					t.Fatalf("store-held submit: status %d, job %+v", code, j)
				}
				if !hasSpan(j.Spans, srcStoreHit) || hasSpan(j.Spans, srcCacheHit) {
					t.Errorf("store-held job spans %v, want store-hit only", j.Spans)
				}
			} else {
				res, ok, err := client.New(ts.URL).LookupResult(context.Background(), key)
				if err != nil || !ok || mustJSON(t, res) != blob {
					t.Fatalf("lookup = %v, %v; want the stored result", ok, err)
				}
			}
			if hits, store := s.m.cacheHits.Load(), s.m.storeHits.Load(); hits != 0 || store != 1 {
				t.Errorf("after the %s: cache_hits %d, store_hits %d; want 0, 1", first, hits, store)
			}

			var j client.Job
			if code := post(t, ts, "/v1/runs", body, &j); code != http.StatusOK || j.Result == nil || mustJSON(t, *j.Result) != blob {
				t.Fatalf("cached submit: status %d, job %+v", code, j)
			}
			if !hasSpan(j.Spans, srcCacheHit) || hasSpan(j.Spans, srcStoreHit) {
				t.Errorf("cached job spans %v, want cache-hit only", j.Spans)
			}
			if hits, store := s.m.cacheHits.Load(), s.m.storeHits.Load(); hits != 1 || store != 1 {
				t.Errorf("after the cached submit: cache_hits %d, store_hits %d; want 1, 1", hits, store)
			}
		})
	}
}

// TestServeMemberURLsNormalized: a member URL names one member however
// it is spelled. A trailing slash on Self and in Peers adds no phantom
// member, which the daemon would proxy and peer-fill to over HTTP, and a
// list with trailing slashes and spaces builds the clean list's ring, as
// the client does.
func TestServeMemberURLsNormalized(t *testing.T) {
	s := New(Config{Self: "http://a:1/", Peers: []string{"http://a:1/", "http://b:2"}})
	defer s.Drain(context.Background())
	if got := s.ring.Nodes(); !slices.Equal(got, []string{"http://a:1", "http://b:2"}) {
		t.Errorf("ring members %q, want [http://a:1 http://b:2]", got)
	}
	if len(s.peers) != 1 || s.peers["http://b:2"] == nil {
		t.Errorf("%d peer clients, want one, for http://b:2", len(s.peers))
	}

	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	clean := New(Config{Self: "http://b:2", Peers: members})
	defer clean.Drain(context.Background())
	messy := New(Config{Self: " http://b:2/ ", Peers: []string{"http://a:1//", " http://b:2", "", "http://c:3/ "}})
	defer messy.Drain(context.Background())
	if !slices.Equal(messy.ring.Nodes(), members) || !slices.Equal(clean.ring.Nodes(), members) || messy.self != clean.self {
		t.Errorf("messy list: ring %q self %q; clean list: ring %q self %q",
			messy.ring.Nodes(), messy.self, clean.ring.Nodes(), clean.self)
	}
	cl, err := client.NewCluster([]string{"http://c:3/", " http://a:1 ", "http://b:2//"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cl.Nodes(), members) || cl.Node(" http://a:1/") == nil {
		t.Errorf("client ring %q, want %q with http://a:1 reachable however spelled", cl.Nodes(), members)
	}
}

// TestServeDrainParkedDuplicate: SIGTERM-drain while a second identical
// submission is parked on the first's in-flight execution. Both jobs
// must finish with the shared result and Drain must return — parked
// callers can never hang shutdown.
func TestServeDrainParkedDuplicate(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s := New(Config{Workers: 2, Execute: func(r uc.Run) (uc.Result, error) {
		started <- struct{}{}
		<-release
		return fakeExecute(r)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var j1, j2 client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignUnison))+`}`, &j1)
	<-started // the leader is executing
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignUnison))+`}`, &j2)

	// Wait until the duplicate has parked on the leader's flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.cache.mu.Lock()
		parked := len(s.cache.inflight) == 1
		s.cache.mu.Unlock()
		if parked && s.queue.Active() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate never parked on the in-flight execution")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Drain observe the busy queue
	close(release)

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung with a parked duplicate submission")
	}
	f1, f2 := waitJob(t, ts, j1.ID), waitJob(t, ts, j2.ID)
	if f1.State != client.StateDone || f2.State != client.StateDone {
		t.Fatalf("states after drain: %s, %s", f1.State, f2.State)
	}
	if mustJSON(t, *f1.Result) != mustJSON(t, *f2.Result) {
		t.Fatal("parked duplicate got a different result")
	}
	if s.m.coalesced.Load() != 1 {
		t.Errorf("coalesced = %d, want 1", s.m.coalesced.Load())
	}
}

// TestServeExecutePanic: a panicking execution fails its job — and any
// parked duplicates — with a clean error instead of hanging them and
// killing the worker; the daemon keeps serving afterwards.
func TestServeExecutePanic(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s := New(Config{Workers: 2, Execute: func(r uc.Run) (uc.Result, error) {
		if r.Workload == "web-search" {
			started <- struct{}{}
			<-release
			panic("synthetic executor bug")
		}
		return fakeExecute(r)
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	var j1, j2 client.Job
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignUnison))+`}`, &j1)
	<-started
	post(t, ts, "/v1/runs", `{"run":`+mustJSON(t, smallRun(uc.DesignUnison))+`}`, &j2)
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Active() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	f1, f2 := waitJob(t, ts, j1.ID), waitJob(t, ts, j2.ID)
	for _, f := range []client.Job{f1, f2} {
		if f.State != client.StateFailed || !strings.Contains(f.Error, "panicked") {
			t.Fatalf("job %s: state %s, error %q; want a clean panic failure", f.ID, f.State, f.Error)
		}
	}

	// The worker survived: an unrelated run still executes.
	other := smallRun(uc.DesignUnison)
	other.Workload = "data-serving"
	got, err := client.New(ts.URL).Execute(context.Background(), other)
	if err != nil {
		t.Fatalf("daemon dead after panic: %v", err)
	}
	if got.UIPC <= 0 {
		t.Fatal("post-panic execution returned junk")
	}
}

// TestCacheByteBounded: the cache evicts by accounted marshaled bytes,
// LRU first, and refuses to retain an entry bigger than its whole
// budget.
func TestCacheByteBounded(t *testing.T) {
	res := func(workload string) uc.Result {
		r, _ := fakeExecute(uc.Run{Workload: workload, Capacity: 1 << 20})
		return r
	}
	one := resultBytes(res("w-0"))
	c := newResultCache(4 * one)
	for i := 0; i < 6; i++ {
		c.put(key(i), res("w-"+itoa(i)))
	}
	if c.bytes() > 4*one {
		t.Fatalf("cache holds %d bytes, budget %d", c.bytes(), 4*one)
	}
	if _, ok := c.get(key(0)); ok {
		t.Error("LRU entry survived past the byte budget")
	}
	if _, ok := c.get(key(5)); !ok {
		t.Error("MRU entry evicted")
	}
	if got := c.len(); got < 3 || got > 4 {
		t.Errorf("cache holds %d entries, want ~4", got)
	}

	// An entry larger than the whole budget is served but not retained.
	big := res("w-big")
	big.Run.TracePath = strings.Repeat("x", int(5*one))
	c.put("big", big)
	if _, ok := c.get("big"); ok {
		t.Error("oversized entry retained")
	}
	if c.bytes() > 4*one {
		t.Errorf("oversized insert corrupted accounting: %d", c.bytes())
	}
}

// put inserts res sized by its marshaled length, as the daemon sizes a
// result whose encoding it does not hold.
func (c *resultCache) put(key string, res uc.Result) { c.add(key, res, resultBytes(res)) }

func key(i int) string { return "key-" + itoa(i) }

func itoa(i int) string { return string(rune('0' + i)) }

// findJobByRequestID locates a node's job record carrying id.
func findJobByRequestID(s *Server, id string) (client.Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if snap := j.snapshot(); snap.RequestID == id {
			return snap, true
		}
	}
	return client.Job{}, false
}

// hasSpan reports whether the timeline contains a span for stage.
func hasSpan(spans []client.Span, stage string) bool {
	for _, s := range spans {
		if s.Stage == stage {
			return true
		}
	}
	return false
}

// TestClusterRequestTracePropagation: one logical run shares one request
// ID across every hop it takes through the cluster — the edge daemon's
// job record, the proxy hop to the owner, the owner's job record, and
// the peer-fill lookups — and the ID lands in every involved daemon's
// structured log.
func TestClusterRequestTracePropagation(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	point := smallRun(uc.DesignUnison)
	owner := ownerIndex(t, nodes, mustKey(t, point))
	other, third := (owner+1)%3, (owner+2)%3
	ctx := context.Background()

	// Plant the result on the third node, so the owner will peer-fill.
	planted := client.New(nodes[third].url)
	planted.Header = http.Header{forwardedHeader: []string{"1"}}
	if _, err := planted.Execute(ctx, point); err != nil {
		t.Fatal(err)
	}

	// Submit to a non-owner with an explicit request ID: the edge proxies
	// to the owner, which fills from the third node's cache — three
	// daemons, one ID.
	tctx, id := obs.EnsureRequestID(ctx)
	if _, err := client.New(nodes[other].url).Execute(tctx, point); err != nil {
		t.Fatal(err)
	}

	edgeJob, ok := findJobByRequestID(nodes[other].s, id)
	if !ok {
		t.Fatalf("edge node has no job for request %s", id)
	}
	if !hasSpan(edgeJob.Spans, "proxied") {
		t.Errorf("edge job spans %v missing 'proxied'", edgeJob.Spans)
	}
	for _, stage := range []string{"received", "queued", "done"} {
		if !hasSpan(edgeJob.Spans, stage) {
			t.Errorf("edge job spans missing %q: %v", stage, edgeJob.Spans)
		}
	}
	ownerJob, ok := findJobByRequestID(nodes[owner].s, id)
	if !ok {
		t.Fatalf("owner has no job for request %s — the proxy hop dropped the ID", id)
	}
	if !hasSpan(ownerJob.Spans, "peer-fill") {
		t.Errorf("owner job spans %v missing 'peer-fill'", ownerJob.Spans)
	}

	// The ID must appear in all three daemons' logs: edge POST, owner's
	// forwarded POST, and the planted node's GET /v1/results lookup.
	for i, nd := range nodes {
		if !strings.Contains(nd.logs.String(), id) {
			t.Errorf("node %d log has no trace of request %s:\n%s", i, id, nd.logs.String())
		}
	}

	// Same contract through the fan-out cluster client: a fresh run
	// submitted via client.NewCluster routes to its owner, whose
	// peer-fill probes touch the other members — the minted ID shows up
	// on all three daemons.
	point2 := smallRun(uc.DesignIdeal)
	point2.Capacity = 512 << 20
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	cc, err := client.NewCluster(urls)
	if err != nil {
		t.Fatal(err)
	}
	cctx, id2 := obs.EnsureRequestID(ctx)
	if _, err := cc.Execute(cctx, point2); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if !strings.Contains(nd.logs.String(), id2) {
			t.Errorf("cluster-client run: node %d log has no trace of %s", i, id2)
		}
	}

	// The response header echoes the ID.
	req, _ := http.NewRequestWithContext(tctx, http.MethodGet, nodes[other].url+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "feedfacefeedface")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "feedfacefeedface" {
		t.Errorf("response echoed request ID %q, want the caller's", got)
	}
}
