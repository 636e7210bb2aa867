package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/client"
)

// BenchmarkServeCachedRun measures the service's cached-request hot path:
// one POST /v1/runs round trip answered synchronously from the
// content-addressed cache — decode, canonical RunKey hash, LRU lookup,
// job bookkeeping, response marshal. This is the throughput ceiling for
// repeat traffic; ns/op here is pure service overhead, with zero
// simulation inside the loop (the single real execution happens in
// setup).
func BenchmarkServeCachedRun(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	run := uc.Run{
		Workload:        "web-search",
		Design:          uc.DesignUnison,
		Capacity:        256 << 20,
		Cores:           2,
		AccessesPerCore: 4_000,
	}
	blob, err := json.Marshal(run)
	if err != nil {
		b.Fatal(err)
	}
	body := `{"run":` + string(blob) + `}`

	// Warm the cache with the one real execution, then require every
	// benchmarked request to be the synchronous cached path (status 200).
	submit := func() int {
		resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var j client.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			b.Fatal(err)
		}
		if j.State == client.StateFailed {
			b.Fatalf("run failed: %s", j.Error)
		}
		return resp.StatusCode
	}
	submit()
	for {
		if code := submit(); code == http.StatusOK {
			break
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := submit(); code != http.StatusOK {
			b.Fatalf("request %d missed the cache (status %d)", i, code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkCachedRun is the service-mixed reader's loop on one daemon:
// the stock client executes a run the daemon already holds. ns/op covers
// the client's request encode and snapshot decode, the HTTP round trip,
// and the daemon's request decode, RunKey, cache lookup and snapshot
// encode; allocs/op counts both sides, which share the process.
func BenchmarkCachedRun(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	cl := client.New(ts.URL)
	ctx := context.Background()
	run := smallRun(uc.DesignUnison)
	if _, err := cl.Execute(ctx, run); err != nil {
		b.Fatal(err)
	}
	hits := s.m.cacheHits.Load()

	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := cl.Execute(ctx, run); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := s.m.cacheHits.Load() - hits; got != uint64(b.N) {
		b.Fatalf("%d of %d reads were cache hits", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
