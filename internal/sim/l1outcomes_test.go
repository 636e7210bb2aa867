package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/dram"
	"unisoncache/internal/trace"
)

// testCapture records events per core of workload on cfg's cores (seed
// 42, as testSources) and loads the capture back, building its outcome
// streams for cfg's L1 in the pass that verifies it.
func testCapture(t *testing.T, cfg Config, workload string, events int) (*trace.Capture, *L1Outcomes) {
	t.Helper()
	var buf bytes.Buffer
	h := trace.FileHeader{Profile: workload, Seed: 42, ScaleDivisor: 1, Cores: cfg.Cores, EventsPerCore: events}
	if err := trace.WriteTrace(&buf, h, testSources(t, cfg.Cores, workload)); err != nil {
		t.Fatal(err)
	}
	b, err := NewL1OutcomeBuilder(cfg.L1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := trace.ReadCapture(&buf, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, b.Outcomes()
}

// replayMachine builds a machine over fresh cursors of c, taking its L1
// outcomes from o when o is non-nil.
func replayMachine(t *testing.T, cfg Config, c *trace.Capture, o *L1Outcomes, events int) *Machine {
	t.Helper()
	s, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	off, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sources []trace.Source
	for _, rs := range c.Sources() {
		sources = append(sources, rs)
	}
	m, err := New(cfg, sources, unisonDesign(s, off), s, off)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		if err := m.UseL1Outcomes(o, events); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestL1OutcomesMatchLiveL1: a machine replaying a capture's outcome
// streams returns the Results of one simulating its L1s, run whole and
// restored mid-warmup and mid-measurement from its own snapshots.
func TestL1OutcomesMatchLiveL1(t *testing.T) {
	cfg := smallConfig(3)
	const events = 6000
	c, o := testCapture(t, cfg, "web-serving", events)
	want := replayMachine(t, cfg, c, nil, 0).Run(events)
	if got := replayMachine(t, cfg, c, o, events).Run(events); !resultsEqual(got, want) {
		t.Errorf("outcome-driven replay diverged from the live L1s:\nlive     %+v\noutcomes %+v", want, got)
	}
	for _, sixths := range []uint64{2, 5} { // mid-warmup, mid-measurement
		saver := replayMachine(t, cfg, c, o, events)
		saver.BeginRun(events)
		saver.RunTo(saver.TotalSteps() * sixths / 6)
		restored := replayMachine(t, cfg, c, o, events)
		restored.BeginRun(events)
		if err := restored.LoadState(checkpoint.NewReader(machineCheckpoint(t, saver))); err != nil {
			t.Fatal(err)
		}
		if got := restored.FinishRun(); !resultsEqual(got, want) {
			t.Errorf("outcome-driven replay restored at %d/6 of the run diverged from the live L1s", sixths)
		}
	}
}

// TestL1OutcomeBitsAreUsed: the machine takes its L1 outcomes from the
// stream, not its L1. Clearing one measured hit bit of a loaded stream
// turns that hit into an L2 lookup and changes the Results.
func TestL1OutcomeBitsAreUsed(t *testing.T) {
	cfg := smallConfig(2)
	const events = 6000
	c, o := testCapture(t, cfg, "web-serving", events)
	want := replayMachine(t, cfg, c, o, events).Run(events)
	s := &o.cores[0]
	k := int(float64(events) * cfg.WarmupFrac)
	for s.hit[k>>6]&(1<<(k&63)) == 0 {
		k++
	}
	s.hit[k>>6] &^= 1 << (k & 63)
	got := replayMachine(t, cfg, c, o, events).Run(events)
	if resultsEqual(got, want) {
		t.Fatalf("clearing the hit bit of core 0's event %d left the Results unchanged", k)
	}
	if got.L2.Accesses != want.L2.Accesses+1 {
		t.Errorf("L2 accesses %d after clearing one hit bit, want %d", got.L2.Accesses, want.L2.Accesses+1)
	}
}

// TestUseL1OutcomesRejects: streams built for another L1 configuration or
// core count, or shorter than the run, are refused, never replayed.
func TestUseL1OutcomesRejects(t *testing.T) {
	cfg := smallConfig(2)
	c, o := testCapture(t, cfg, "web-search", 1000)
	other := cfg
	other.L1.SizeBytes = 32 << 10
	three := smallConfig(3)
	cases := []struct {
		name   string
		cfg    Config
		events int
		want   string
	}{
		{"another L1", other, 1000, "built for L1"},
		{"another core count", three, 1000, "hold 2 cores"},
		{"a longer run", cfg, 1001, "run needs 1001"},
	}
	for _, tc := range cases {
		var sources []trace.Source
		for i := 0; i < tc.cfg.Cores; i++ {
			sources = append(sources, c.Sources()[i%2])
		}
		s, err := dram.NewController(dram.StackedConfig())
		if err != nil {
			t.Fatal(err)
		}
		off, err := dram.NewController(dram.OffchipConfig())
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(tc.cfg, sources, noneDesign(s, off), s, off)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.UseL1Outcomes(o, tc.events); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UseL1Outcomes = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestL1OutcomeReplaySteadyStateZeroAllocs extends the allocation wall to
// machines that replay outcome streams.
func TestL1OutcomeReplaySteadyStateZeroAllocs(t *testing.T) {
	const warm, chunk = 20_000, 5_000
	cfg := smallConfig(4)
	c, o := testCapture(t, cfg, "data-serving", warm+11*chunk)
	checkSteadyAllocs(t, replayMachine(t, cfg, c, o, warm+11*chunk), warm, chunk)
}

// TestCountBits holds countBits to a bit-by-bit count over random ranges,
// word boundaries included.
func TestCountBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bm := make([]uint64, 5)
	for i := range bm {
		bm[i] = rng.Uint64()
	}
	naive := func(lo, hi int) int {
		n := 0
		for k := lo; k < hi; k++ {
			n += int(bm[k>>6] >> (k & 63) & 1)
		}
		return n
	}
	for lo := 0; lo <= 64*len(bm); lo++ {
		for _, hi := range []int{lo, lo + 1, lo + 63, lo + 64, lo + 65, 64 * len(bm)} {
			if hi > 64*len(bm) || hi < lo {
				continue
			}
			if got, want := countBits(bm, lo, hi), naive(lo, hi); got != want {
				t.Fatalf("countBits(%d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}
