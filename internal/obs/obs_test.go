package obs

import (
	"bytes"
	"context"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRequestIDs: format, uniqueness, and context round trip.
func TestRequestIDs(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if !re.MatchString(id) {
			t.Fatalf("NewRequestID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q after %d draws", id, i)
		}
		seen[id] = true
	}

	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Errorf("empty context carries ID %q", got)
	}
	ctx = WithRequestID(ctx, "abc")
	if got := RequestIDFrom(ctx); got != "abc" {
		t.Errorf("RequestIDFrom = %q, want abc", got)
	}
	if ctx2, id := EnsureRequestID(ctx); id != "abc" || ctx2 != ctx {
		t.Errorf("EnsureRequestID re-minted over an existing ID")
	}
	ctx3, id := EnsureRequestID(context.Background())
	if id == "" || RequestIDFrom(ctx3) != id {
		t.Errorf("EnsureRequestID did not install a fresh ID")
	}
	if got := WithRequestID(context.Background(), ""); RequestIDFrom(got) != "" {
		t.Errorf("empty ID installed")
	}
}

// TestTimeline: spans record in order with monotone offsets, also
// under concurrent recording.
func TestTimeline(t *testing.T) {
	tl := NewTimeline()
	tl.Mark("received")
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	tl.Observe("queued", start)
	tl.Mark("done")

	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wantStages := []string{"received", "queued", "done"}
	for i, s := range spans {
		if s.Stage != wantStages[i] {
			t.Errorf("span %d stage %q, want %q", i, s.Stage, wantStages[i])
		}
		if s.Start < 0 {
			t.Errorf("span %d negative start %v", i, s.Start)
		}
	}
	if spans[1].Dur < 2*time.Millisecond {
		t.Errorf("queued span dur %v, want >= 2ms", spans[1].Dur)
	}
	if spans[2].Start < spans[1].Start {
		t.Errorf("spans out of order: done at %v before queued at %v", spans[2].Start, spans[1].Start)
	}

	// Concurrent recording must not race, and keeps every span.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tl.Mark("flood")
			}
		}()
	}
	wg.Wait()
	if got, want := len(tl.Spans()), 3+200; got != want {
		t.Fatalf("timeline holds %d spans after 3 + 200 marks, want %d", got, want)
	}
}

// TestMeter: cumulative accounting and the derived rate.
func TestMeter(t *testing.T) {
	var m Meter
	if m.EventsPerSecond() != 0 {
		t.Errorf("zero meter rate = %v, want 0", m.EventsPerSecond())
	}
	m.RecordRun(1000, 2*time.Second)
	m.RecordRun(3000, 2*time.Second)
	if m.Events() != 4000 || m.Runs() != 2 {
		t.Errorf("events %d runs %d, want 4000/2", m.Events(), m.Runs())
	}
	if got := m.EventsPerSecond(); got != 1000 {
		t.Errorf("rate = %v, want 1000", got)
	}
}

// TestNewLogger: both formats construct, unknown formats and levels are
// rejected, and the JSON handler emits greppable req_id attributes.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, LogJSON, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "req_id", "deadbeefcafe0123")
	if !strings.Contains(buf.String(), `"req_id":"deadbeefcafe0123"`) {
		t.Errorf("json log line missing req_id: %s", buf.String())
	}
	lg.Debug("dropped")
	if strings.Contains(buf.String(), "dropped") {
		t.Error("level filter did not drop a debug line")
	}

	if _, err := NewLogger(&buf, "yaml", slog.LevelInfo); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(&buf, LogText, slog.LevelDebug); err != nil {
		t.Errorf("text format rejected: %v", err)
	}
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("unknown level accepted")
	}
}
