package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"unisoncache/client"
	"unisoncache/internal/serve"
	"unisoncache/internal/store"
)

// expNode is one in-process cluster member with a persistent store,
// restartable via boot().
type expNode struct {
	ts      *httptest.Server
	s       *serve.Server
	st      *store.Store
	handler *atomic.Value // holds handlerBox (one concrete type for Store)
	dir     string
	url     string
}

// handlerBox gives atomic.Value the single concrete type it requires.
type handlerBox struct{ h http.Handler }

// boot (re)builds the node's daemon over its store directory and swaps
// it live — the in-process equivalent of restarting unisonserved with
// the same -store-dir.
func (n *expNode) boot(t *testing.T, urls []string) {
	t.Helper()
	st, err := store.Open(n.dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.st = st
	n.s = serve.New(serve.Config{Self: n.url, Peers: urls, Store: st})
	n.handler.Store(handlerBox{n.s.Handler()})
}

// halt drains the node and closes its store, leaving the listener up
// (requests 503 until the next boot).
func (n *expNode) halt(t *testing.T) {
	t.Helper()
	n.handler.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	})})
	if err := n.s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := n.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// startExpCluster boots a 3-member cluster, each with its own store.
func startExpCluster(t *testing.T) ([]*expNode, []string) {
	t.Helper()
	const n = 3
	nodes := make([]*expNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nd := &expNode{handler: &atomic.Value{}, dir: t.TempDir()}
		nd.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			box, _ := nd.handler.Load().(handlerBox)
			if box.h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			box.h.ServeHTTP(w, r)
		}))
		nd.url = nd.ts.URL
		urls[i] = nd.url
		nodes[i] = nd
		t.Cleanup(nd.ts.Close)
	}
	for _, nd := range nodes {
		nd.boot(t, urls)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.s.Drain(context.Background())
			nd.st.Close()
		}
	})
	return nodes, urls
}

// clusterSum sums one metric across the members.
func clusterSum(t *testing.T, urls []string, metric string) float64 {
	t.Helper()
	var total float64
	for _, u := range urls {
		m, err := client.New(u).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		total += m[metric]
	}
	return total
}

// TestFig7CSVMatchesCluster pins the cluster acceptance criterion: fig7
// through a 3-daemon consistent-hash cluster writes CSVs byte-identical
// to the in-process path — cold, and again after every member restarts
// and must serve its shard from its persistent store instead of
// re-simulating. The client routes each point to its owner, so no daemon
// proxies a run.
func TestFig7CSVMatchesCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations across an in-process cluster")
	}
	nodes, urls := startExpCluster(t)

	local := options{
		accesses:  2_000,
		seed:      1,
		workloads: []string{"web-search", "data-serving"},
		outDir:    t.TempDir(),
	}
	if err := fig7(local); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(local.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := newService(urls[0] + "," + urls[1] + "," + urls[2])
	if err != nil {
		t.Fatal(err)
	}
	served := local
	served.outDir = t.TempDir()
	served.srv = srv
	if err := fig7(served); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(served.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("cluster fig7.csv diverges from the in-process path:\n--- cluster ---\n%s\n--- local ---\n%s", got, want)
	}

	// Restart every member: all memory caches (and metrics counters) are
	// gone, the stores are not — the rerun can only be fed from disk.
	for _, nd := range nodes {
		nd.halt(t)
		nd.boot(t, urls)
	}

	rerun := served
	rerun.outDir = t.TempDir()
	if err := fig7(rerun); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(rerun.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Fatal("post-restart cluster rerun diverges from the in-process CSV")
	}
	if d := clusterSum(t, urls, "unisonserved_cache_misses_total"); d != 0 {
		t.Errorf("post-restart rerun re-simulated %v runs, want 0 (results must come from the stores)", d)
	}
	if n := clusterSum(t, urls, "unisonserved_proxied_total"); n != 0 {
		t.Errorf("post-restart rerun made %v proxy hops, want 0 (the client routes each point to its owner)", n)
	}
	if clusterSum(t, urls, "unisonserved_store_hits_total") < 1 {
		t.Errorf("post-restart rerun recorded no store hits (want >= 1)")
	}
	if clusterSum(t, urls, "unisonserved_store_records") < 1 {
		t.Errorf("restarted cluster recovered no records from disk")
	}
}
