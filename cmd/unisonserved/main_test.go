package main

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/client"
)

// TestParseFlags: defaults and rejection of stray arguments.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.workers != runtime.GOMAXPROCS(0) || o.cacheBytes != 256<<20 {
		t.Errorf("defaults = %+v", o)
	}
	if o.storeDir != "" || o.storeBytes != 1<<30 || o.self != "" || o.peers != "" {
		t.Errorf("cluster/store defaults = %+v", o)
	}
	if _, err := parseFlags([]string{"-addr", ":0", "stray"}); err == nil {
		t.Error("stray argument accepted")
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"-self", "http://x:1"}); err == nil {
		t.Error("-self without -peers accepted")
	}
	if o.logFormat != "text" || o.logLevel != "info" || o.slowThreshold != time.Minute || o.pprofAddr != "" {
		t.Errorf("observability defaults = %+v", o)
	}
	if _, err := parseFlags([]string{"-log-format", "yaml"}); err == nil {
		t.Error("-log-format yaml accepted")
	}
	if _, err := parseFlags([]string{"-log-level", "loud"}); err == nil {
		t.Error("-log-level loud accepted")
	}
	if o, err := parseFlags([]string{"-log-format", "json", "-log-level", "debug", "-slow-threshold", "2s", "-pprof-addr", "127.0.0.1:0"}); err != nil ||
		o.logFormat != "json" || o.logLevel != "debug" || o.slowThreshold != 2*time.Second || o.pprofAddr != "127.0.0.1:0" {
		t.Errorf("observability flags = %+v, %v", o, err)
	}
}

// TestPprofListener: -pprof-addr serves the standard profile index on
// its own listener, and empty means disabled.
func TestPprofListener(t *testing.T) {
	lg := slog.New(slog.DiscardHandler)
	if addr, c, err := servePprof("", lg); addr != "" || c != nil || err != nil {
		t.Fatalf("disabled pprof = %q, %v, %v", addr, c, err)
	}
	addr, c, err := servePprof("127.0.0.1:0", lg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty pprof cmdline response")
	}
}

// TestDaemonLifecycle boots the daemon on a random port, executes a run
// through the client, then SIGTERMs it and verifies the graceful stop.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation through the daemon")
	}
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, stop, func(addr string) { addrCh <- addr }) }()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}
	cl := client.New("http://" + addr)
	ctx := context.Background()

	if h, err := cl.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	run := uc.Run{Workload: "web-search", Design: uc.DesignUnison,
		Capacity: 256 << 20, Cores: 2, AccessesPerCore: 2_000}
	res, err := cl.Execute(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.UIPC <= 0 {
		t.Errorf("UIPC = %v, want > 0", res.UIPC)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not stop within 30s of SIGTERM")
	}
}

// TestDaemonRestartServesFromStore: with -store-dir, a result produced
// before a graceful stop is served from disk by the next boot — no
// re-simulation (cache_misses stays 0, store_hits advances).
func TestDaemonRestartServesFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation through the daemon")
	}
	dir := t.TempDir()
	boot := func() (chan os.Signal, chan error, string) {
		o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-store-dir", dir})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan os.Signal, 1)
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(o, stop, func(addr string) { addrCh <- addr }) }()
		select {
		case addr := <-addrCh:
			return stop, done, addr
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
			return nil, nil, ""
		}
	}
	halt := func(stop chan os.Signal, done chan error) {
		stop <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not stop within 30s of SIGTERM")
		}
	}
	ctx := context.Background()
	point := uc.Run{Workload: "web-search", Design: uc.DesignUnison,
		Capacity: 256 << 20, Cores: 2, AccessesPerCore: 2_000}

	stop, done, addr := boot()
	first, err := client.New("http://"+addr).Execute(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	halt(stop, done)

	stop, done, addr = boot()
	defer halt(stop, done)
	cl := client.New("http://" + addr)
	second, err := cl.Execute(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	if first.UIPC != second.UIPC {
		t.Errorf("restarted daemon returned UIPC %v, want %v", second.UIPC, first.UIPC)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["unisonserved_cache_misses_total"] != 0 {
		t.Errorf("restarted daemon re-simulated (%v misses)", m["unisonserved_cache_misses_total"])
	}
	if m["unisonserved_store_hits_total"] < 1 {
		t.Errorf("store_hits = %v, want >= 1", m["unisonserved_store_hits_total"])
	}
}
