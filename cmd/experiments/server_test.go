package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"unisoncache/client"
	"unisoncache/internal/serve"
)

// TestFig7CSVMatchesServer pins the service acceptance criterion: fig7
// routed through a unisonserved daemon writes CSVs byte-identical to the
// in-process path, and resubmitting the same sweep is served from the
// daemon's content-addressed cache without re-executing.
func TestFig7CSVMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations twice (local + service)")
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

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

	cl := client.New(ts.URL)
	served := local
	served.outDir = t.TempDir()
	if served.srv, err = newService(ts.URL); err != nil {
		t.Fatal(err)
	}
	if err := fig7(served); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(served.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("-server fig7.csv diverges from the in-process path:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}

	// Resubmission: every run is already cached, so the second service
	// pass executes nothing new and still reproduces the bytes.
	ctx := context.Background()
	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("cached -server rerun diverges from the in-process CSV")
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after["unisonserved_cache_misses_total"] != before["unisonserved_cache_misses_total"] {
		t.Errorf("cached rerun executed %v new simulations, want 0",
			after["unisonserved_cache_misses_total"]-before["unisonserved_cache_misses_total"])
	}
	if after["unisonserved_cache_hits_total"] <= before["unisonserved_cache_hits_total"] {
		t.Errorf("cached rerun recorded no cache hits (before %v, after %v)",
			before["unisonserved_cache_hits_total"], after["unisonserved_cache_hits_total"])
	}
}
