package unisoncache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unisoncache/internal/mem"
	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

// The memo tests replay small captures at this capacity.
const memoCapacity = 128 << 20

// strideSource walks consecutive blocks under one PC, every k-th event a
// store. Every event but the first encodes to three bytes whatever k is,
// so captures differing only in k have the same size.
type strideSource struct{ i, k uint64 }

func (s *strideSource) Next() trace.Event {
	s.i++
	return trace.Event{Gap: 3, Addr: mem.BlockAddr(s.i), PC: 0x400, Write: s.i%s.k == 0}
}

// writeStrideCapture writes a 2-core stride capture with stores every k
// events to path, replacing the file's content in place, and returns its
// bytes.
func writeStrideCapture(t *testing.T, path string, k uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	h := trace.FileHeader{Profile: "stride", Seed: 1, ScaleDivisor: AutoScaleDivisor(memoCapacity), Cores: 2, EventsPerCore: 20_000}
	if err := trace.WriteTrace(&buf, h, []trace.Source{&strideSource{k: k}, &strideSource{k: k}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayJSON executes r and returns its Result as JSON.
func replayJSON(t *testing.T, r Run) string {
	t.Helper()
	res, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// forgetCapture empties the capture memo.
func forgetCapture() {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	captures.path, captures.c, captures.l1 = "", nil, nil
}

// memoHolds reports whether the memo holds a capture read from path.
func memoHolds(path string) bool {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	return captures.c != nil && captures.path == path
}

// TestCaptureMemoRereadsSameSizeRewrite rewrites a memoized capture in
// place with different bytes of the same size and restores its mtime: the
// next replay must run the new bytes, exactly as a replay with an empty
// memo does.
func TestCaptureMemoRereadsSameSizeRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stride.utrace")
	old := writeStrideCapture(t, path, 2)
	r := Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity}
	before := replayJSON(t, r)
	if !memoHolds(path) {
		t.Fatal("a replay left the memo without its capture")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := writeStrideCapture(t, path, 3)
	if len(rewritten) != len(old) || bytes.Equal(rewritten, old) {
		t.Fatalf("rewrite is %d bytes against %d, equal %v: want the same size and other bytes",
			len(rewritten), len(old), bytes.Equal(rewritten, old))
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	got := replayJSON(t, r)
	forgetCapture()
	if want := replayJSON(t, r); got != want {
		t.Errorf("replay after a same-size rewrite diverged from a memo-free replay\nwant: %s\n got: %s", want, got)
	}
	if got == before {
		t.Error("the rewrite left the Result unchanged, so a stale memo would go unseen")
	}
}

// TestCaptureMemoCorruptRewrite: a memoized capture rewritten with bytes
// that do not verify fails the replay with ReadTrace's error.
func TestCaptureMemoCorruptRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stride.utrace")
	data := writeStrideCapture(t, path, 2)
	r := Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity}
	replayJSON(t, r)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] |= 0x80 // the last varint never ends
	_, _, want := trace.ReadTrace(bytes.NewReader(corrupt))
	if want == nil {
		t.Fatal("ReadTrace accepted the corrupt capture")
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(r); err == nil || err.Error() != want.Error() {
		t.Errorf("replay of a corrupt rewrite returned %v, want ReadTrace's %q", err, want)
	}
}

// TestCaptureMemoDeletedFile: with the capture memoized, deleting the file
// still fails the replay at open.
func TestCaptureMemoDeletedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stride.utrace")
	writeStrideCapture(t, path, 2)
	r := Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity}
	replayJSON(t, r)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(r); err == nil || !strings.Contains(err.Error(), "opening trace") {
		t.Errorf("replay of a deleted capture returned %v, want an opening-trace error", err)
	}
}

// TestCaptureMemoSecondPath: the same bytes at a second path replay the
// same Results and echo the path they were given.
func TestCaptureMemoSecondPath(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.utrace"), filepath.Join(dir, "b.utrace")
	data := writeStrideCapture(t, first, 2)
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := replayJSON(t, Run{TracePath: first, Design: DesignUnison, Capacity: memoCapacity})
	for _, path := range []string{second, first} {
		res, err := Execute(Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity})
		if err != nil {
			t.Fatal(err)
		}
		if res.Run.TracePath != path {
			t.Errorf("replay of %s echoed TracePath %s", path, res.Run.TracePath)
		}
		res.Run.TracePath = first
		if resultJSON(t, res) != want {
			t.Errorf("replay of %s diverged from the same bytes at %s", path, first)
		}
	}
}

// TestCaptureMemoConcurrentReplays shares one capture between a
// Segments: 2 repeat's concurrent segment workers and requires both passes
// to equal the serial replay. TestCaptureMemoOutcomesConcurrent covers
// ExecuteMany's pool.
func TestCaptureMemoConcurrentReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.utrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordTrace(Run{Workload: "web-serving", Capacity: memoCapacity, Cores: 2, AccessesPerCore: 4_000, Seed: 4}, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seg := Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity}
	want := replayJSON(t, seg)
	ckStore.Reset()
	seg.Segments = 2
	for _, pass := range []string{"serial-with-save", "repeat"} {
		if got := replayJSON(t, seg); got != want {
			t.Errorf("Segments: 2 %s diverged from the serial replay", pass)
		}
	}
}

// TestCaptureMemoOutcomesConcurrent: concurrent replays of one capture
// share its bytes and its L1 outcome streams. ExecuteMany at Jobs: 4 over
// every design, plain and with telemetry, starts from an empty memo, so
// the pool's first loads race to verify the capture and build the
// streams, and every Result must equal its serial replay.
func TestCaptureMemoOutcomesConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.utrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordTrace(Run{Workload: "web-serving", Capacity: memoCapacity, Cores: 2, AccessesPerCore: 4_000, Seed: 6}, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var runs []Run
	var want []string
	for _, d := range Designs() {
		for _, tele := range []TelemetrySpec{{}, {EpochEvents: 500}} {
			r := Run{TracePath: path, Design: d, Capacity: memoCapacity, Telemetry: tele}
			runs = append(runs, r)
			want = append(want, replayJSON(t, r))
		}
	}
	forgetCapture()
	res, err := ExecuteMany(Plan{Points: runs, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if got := resultJSON(t, r); got != want[i] {
			t.Errorf("%s (telemetry %v): ExecuteMany at Jobs: 4 diverged from the serial replay", runs[i].Design, runs[i].Telemetry.Enabled())
		}
	}
}

// TestCaptureMemoShortOutcomesRejected: a replay's machine runs on the L1
// outcome streams in the memo and refuses streams shorter than its run.
// Streams built from a 1000-event prefix of the capture, put beside its
// bytes, fail a 20k-event replay with an error, and a 1000-event replay
// still runs on them.
func TestCaptureMemoShortOutcomesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stride.utrace")
	writeStrideCapture(t, path, 2)
	r := Run{TracePath: path, Design: DesignUnison, Capacity: memoCapacity}
	replayJSON(t, r)

	var short bytes.Buffer
	h := trace.FileHeader{Profile: "stride", Seed: 1, ScaleDivisor: AutoScaleDivisor(memoCapacity), Cores: 2, EventsPerCore: 1_000}
	if err := trace.WriteTrace(&short, h, []trace.Source{&strideSource{k: 2}, &strideSource{k: 2}}); err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewL1OutcomeBuilder(sim.Default().L1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadCapture(&short, b); err != nil {
		t.Fatal(err)
	}
	captures.mu.Lock()
	captures.l1 = b.Outcomes()
	captures.mu.Unlock()
	defer forgetCapture()
	if !memoHolds(path) {
		t.Fatal("the memo lost the capture")
	}
	if _, err := Execute(r); err == nil || !strings.Contains(err.Error(), "run needs 20000") {
		t.Errorf("replay on short outcome streams returned %v, want a rejection", err)
	}
	prefix := r
	prefix.AccessesPerCore = 1_000
	got := replayJSON(t, prefix)
	forgetCapture()
	if want := replayJSON(t, prefix); got != want {
		t.Error("a prefix replay on the prefix's own outcome streams diverged")
	}
}

// TestReplayMatchesLiveEveryMode extends TestRecordReplayBitIdentical to
// every design and mode: a replay of a capture — plain, sampled, with
// telemetry, both Segments: 2 passes, and a prefix of the
// capture — returns the Result, timeline included, byte for byte, of the
// live run of the same Run, whose machine simulates its L1s. Every live
// and replayed Result obeys the conservation laws.
func TestReplayMatchesLiveEveryMode(t *testing.T) {
	rec := Run{Workload: "web-serving", Capacity: 256 << 20, Cores: 4, Seed: 3, AccessesPerCore: 30_000}
	path := filepath.Join(t.TempDir(), "modes.utrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordTrace(rec, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name   string
		set    func(*Run)
		passes []string
	}{
		{"plain", func(*Run) {}, []string{""}},
		{"sampled", func(r *Run) {
			r.Sampling = SampleSpec{IntervalEvents: 500, GapEvents: 1500, MinIntervals: 4, TargetRelCI: 0.5}
		}, []string{""}},
		{"telemetry", func(r *Run) { r.Telemetry = TelemetrySpec{EpochEvents: 1_000} }, []string{""}},
		{"segments", func(r *Run) { r.Segments = 2 }, []string{"serial-with-save ", "repeat "}},
		{"prefix", func(r *Run) { r.AccessesPerCore = 20_000 }, []string{""}},
	}
	ckStore.Reset()
	for _, d := range Designs() {
		for _, m := range modes {
			live := rec
			live.Design = d
			m.set(&live)
			replay := live
			replay.TracePath = path
			for _, pass := range m.passes {
				name := fmt.Sprintf("%s %s%s", d, pass, m.name)
				liveRes, err := Execute(live)
				if err != nil {
					t.Fatalf("%s live: %v", name, err)
				}
				CheckConservation(t, name+" live", liveRes)
				want := resultJSON(t, liveRes)
				res, err := Execute(replay)
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				CheckConservation(t, name+" replay", res)
				res.Run.TracePath = ""
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s replay diverged from the live run\nwant: %s\n got: %s", name, want, got)
				}
				if m.name == "sampled" {
					if fit, _ := replay.Sampling.Windows(replay.AccessesPerCore); len(res.CI.Windows) != fit || !res.CI.Converged {
						t.Errorf("%s sampled replay measured %d of %d windows, Converged %v; want every window, converged", d, len(res.CI.Windows), fit, res.CI.Converged)
					}
				}
			}
		}
	}
}

// BenchmarkCaptureLoad times one load of observed-replay's capture shape
// (web-serving at 1 GB, 16 cores × 200k events): cold empties the memo and
// loads through it, which reads and verifies the file and builds the L1
// outcome streams, what a first replay pays; warm is a memo hit, an open
// and a chunked compare. Both report the outcome streams' size.
func BenchmarkCaptureLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "load.utrace")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := RecordTrace(Run{Workload: "web-serving", Capacity: 1 << 30, Cores: 16, AccessesPerCore: 200_000, Seed: 1}, f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	var l1 *sim.L1Outcomes
	load := func(b *testing.B) {
		var err error
		if _, l1, err = captures.load(path); err != nil {
			b.Fatal(err)
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/load")
		b.ReportMetric(float64(l1.SizeBytes()), "outcome-bytes")
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forgetCapture()
			load(b)
		}
		report(b)
	})
	b.Run("warm", func(b *testing.B) {
		load(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b)
		}
		report(b)
	})
}
