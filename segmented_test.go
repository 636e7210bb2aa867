package unisoncache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// resultJSON renders a Result exactly as the golden wall does, after
// normalizing the one field segmented execution is allowed to differ in:
// the echoed Segments configuration. Everything else — every counter,
// every float — must be byte-identical to the serial run.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	res.Run.Segments = 0
	b, err := json.MarshalIndent(res, "    ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSegmentBounds(t *testing.T) {
	cases := []struct {
		total uint64
		k     int
		want  []uint64
	}{
		{total: 100, k: 1, want: nil},
		{total: 100, k: 2, want: []uint64{50}},
		{total: 100, k: 4, want: []uint64{25, 50, 75}},
		{total: 80_000, k: 7, want: []uint64{11428, 22857, 34285, 45714, 57142, 68571}},
		// Non-divisor, tiny run: duplicate boundaries collapse.
		{total: 3, k: 4, want: []uint64{1, 2}},
		{total: 2, k: 7, want: []uint64{1}},
		{total: 1, k: 5, want: nil},
		{total: 0, k: 3, want: nil},
	}
	for _, c := range cases {
		got := segmentBounds(c.total, c.k)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("segmentBounds(%d, %d) = %v, want %v", c.total, c.k, got, c.want)
		}
		prev := uint64(0)
		for _, b := range got {
			if b <= prev || b >= c.total {
				t.Errorf("segmentBounds(%d, %d): boundary %d out of order or trivial", c.total, c.k, b)
			}
			prev = b
		}
	}
}

// TestTimeParallelGolden extends the golden determinism wall to segmented
// execution: for every committed golden entry and K in {1, 2, 4, 7} —
// non-divisor segment counts included — both the first (serial-with-save)
// and second (parallel from checkpoints) execution must reproduce the
// committed serial bytes exactly, modulo the echoed Segments field.
func TestTimeParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("segmented golden wall replays each golden run 8 more times; skipped in -short")
	}
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"web-search", "data-analytics"} {
		for _, d := range Designs() {
			key := fmt.Sprintf("%s/%s", w, d)
			golden, ok := want[key]
			if !ok {
				t.Fatalf("no golden entry for %s", key)
			}
			for _, k := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%s/K=%d", key, k), func(t *testing.T) {
					ckStore.Reset()
					r := Run{
						Workload:        w,
						Design:          d,
						Capacity:        256 << 20,
						Cores:           4,
						AccessesPerCore: 20_000,
						Seed:            1,
						Segments:        k,
					}
					for _, pass := range []string{"serial-with-save", "parallel"} {
						res, err := Execute(r)
						if err != nil {
							t.Fatalf("%s: %v", pass, err)
						}
						if got := resultJSON(t, res); got != string(golden) {
							t.Errorf("%s pass diverged from serial golden\ngolden: %s\n   got: %s", pass, golden, got)
						}
					}
				})
			}
		}
	}
}

// TestSegmentedParityShort is the always-on (and race-detector-visible)
// slice of the segmented wall: one small configuration, serial versus both
// segmented passes.
func TestSegmentedParityShort(t *testing.T) {
	ckStore.Reset()
	r := Run{Workload: "data-serving", Design: DesignUnison, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 4_000, Seed: 7}
	serial, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, serial)
	r.Segments = 3
	for _, pass := range []string{"serial-with-save", "parallel"} {
		res, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := resultJSON(t, res); got != want {
			t.Errorf("%s pass diverged from serial\nwant: %s\n got: %s", pass, want, got)
		}
	}
	if n := ckStore.Len(); n == 0 {
		t.Error("segmented execution left no snapshots in the store")
	}
}

// TestCheckpointRoundTrip is the tentpole's codec wall: for every design
// and every built-in workload, freeze a run at a random offset (seeds
// committed below), restore the snapshot into a freshly built machine,
// replay to completion, and require Results bit-identical to the
// uninterrupted run. Offsets land in warmup, at the boundary and in the
// measurement phase across the table.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trips every design x workload; skipped in -short")
	}
	rng := rand.New(rand.NewSource(0x5eed_c0de)) // committed: offsets are part of the wall
	for _, w := range []string{"data-analytics", "data-serving", "software-testing", "web-search", "web-serving", "tpch"} {
		for _, d := range Designs() {
			t.Run(fmt.Sprintf("%s/%s", w, d), func(t *testing.T) {
				r := Run{Workload: w, Design: d, Capacity: 128 << 20,
					Cores: 2, AccessesPerCore: 3_000, Seed: 3}.withDefaults()
				m, rr, err := newMachine(r)
				if err != nil {
					t.Fatal(err)
				}
				m.BeginRun(rr.AccessesPerCore)
				total := m.TotalSteps()
				offset := 1 + uint64(rng.Int63n(int64(total-1)))

				want := resultJSON(t, Result{Results: m.FinishRun(), Run: rr})

				saver, _, err := newMachine(r)
				if err != nil {
					t.Fatal(err)
				}
				saver.BeginRun(rr.AccessesPerCore)
				saver.RunTo(offset)
				blob, err := encodeMachine(saver, "t", offset)
				if err != nil {
					t.Fatalf("encoding at offset %d: %v", offset, err)
				}

				restored, _, err := restoreMachine(r, "t", offset, blob)
				if err != nil {
					t.Fatalf("restoring at offset %d: %v", offset, err)
				}
				got := resultJSON(t, Result{Results: restored.FinishRun(), Run: rr})
				if got != want {
					t.Errorf("offset %d/%d: restored run diverged\nwant: %s\n got: %s", offset, total, want, got)
				}
			})
		}
	}
}

// TestCheckpointRoundTripReplay covers the recorded-trace source: a
// checkpoint taken mid-replay of a .utrace capture restores and completes
// bit-identically.
func TestCheckpointRoundTripReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "roundtrip.utrace")
	rec := Run{Workload: "web-search", Design: DesignUnison, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 3_000, Seed: 5}
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

	r := Run{TracePath: path, Design: DesignUnison, Capacity: 128 << 20}.withDefaults()
	m, rr, err := newMachine(r)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginRun(rr.AccessesPerCore)
	total := m.TotalSteps()
	want := resultJSON(t, Result{Results: m.FinishRun(), Run: rr})

	for _, offset := range []uint64{1, total / 3, total / 2, total - 1} {
		saver, _, err := newMachine(r)
		if err != nil {
			t.Fatal(err)
		}
		saver.BeginRun(rr.AccessesPerCore)
		saver.RunTo(offset)
		blob, err := encodeMachine(saver, "t", offset)
		if err != nil {
			t.Fatalf("offset %d: %v", offset, err)
		}
		restored, _, err := restoreMachine(r, "t", offset, blob)
		if err != nil {
			t.Fatalf("offset %d: %v", offset, err)
		}
		if got := resultJSON(t, Result{Results: restored.FinishRun(), Run: rr}); got != want {
			t.Errorf("offset %d: replay round-trip diverged", offset)
		}
	}
}

// TestSegmentedReplayMatchesPlain runs a recorded capture through both
// Segments paths — the serial-with-save first run and the concurrent
// repeat from the store, whose segment 0 replays on the machine built to
// compute the bounds — and requires each to match the plain replay.
func TestSegmentedReplayMatchesPlain(t *testing.T) {
	ckStore.Reset()
	path := filepath.Join(t.TempDir(), "segmented.utrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := Run{Workload: "web-serving", Capacity: 128 << 20, Cores: 2, AccessesPerCore: 4_000, Seed: 4}
	if err := RecordTrace(rec, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := Run{TracePath: path, Design: DesignUnison, Capacity: 128 << 20}
	plain, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, plain)
	r.Segments = 2
	for _, pass := range []string{"serial-with-save", "parallel"} {
		res, err := Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := resultJSON(t, res); got != want {
			t.Errorf("%s pass diverged from the plain replay\nwant: %s\n got: %s", pass, want, got)
		}
	}
	if n := ckStore.Len(); n == 0 {
		t.Error("segmented replay left no snapshots in the store")
	}
}

// TestSegmentedReplayRepeatNeedsNoFixup: a replay's machines never touch
// their L1s, and the first run and segment 0 stop their L1-hit folds at
// the same RunTo target, so the boundary a Segments: 2 first run stores
// byte-equals the end state segment 0 computes on a fresh machine, and the repeat
// finds nothing to fix up: the store keeps the very snapshot the first run
// wrote.
func TestSegmentedReplayRepeatNeedsNoFixup(t *testing.T) {
	ckStore.Reset()
	path := filepath.Join(t.TempDir(), "fixup.utrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordTrace(Run{Workload: "web-serving", Capacity: 128 << 20, Cores: 2, AccessesPerCore: 4_000, Seed: 8}, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := Run{TracePath: path, Design: DesignAlloy, Capacity: 128 << 20, Segments: 2}
	first := replayJSON(t, r) // serial-with-save

	rr := r.withDefaults()
	prefix, err := checkpointPrefix(rr)
	if err != nil {
		t.Fatal(err)
	}
	m, rr, err := newMachine(rr)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginRun(rr.AccessesPerCore)
	bounds := segmentBounds(m.TotalSteps(), rr.Segments)
	if len(bounds) != 1 {
		t.Fatalf("expected 1 interior bound, got %v", bounds)
	}
	stored, ok := ckStore.Get(prefix, bounds[0])
	if !ok {
		t.Fatal("boundary snapshot missing after serial-with-save")
	}
	m.RunTo(bounds[0])
	end, err := encodeMachine(m, prefix, bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(end, stored) {
		t.Fatal("segment 0's end state differs from the stored boundary, so every repeat rewrites it")
	}

	if got := replayJSON(t, r); got != first {
		t.Error("the repeat diverged from the first run")
	}
	if after, _ := ckStore.Get(prefix, bounds[0]); &after[0] != &stored[0] {
		t.Error("the repeat rewrote the stored boundary")
	}
}

// TestSegmentedFixupCascade poisons the snapshot store with a hash-valid
// snapshot of the WRONG state (a different seed's trajectory at the same
// offset) and requires the parallel pass to detect the stale boundary,
// write back the authoritative state and still return bit-identical
// Results.
func TestSegmentedFixupCascade(t *testing.T) {
	ckStore.Reset()
	r := Run{Workload: "web-search", Design: DesignAlloy, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 4_000, Seed: 1, Segments: 3}
	first, err := Execute(r) // serial-with-save: populates the boundaries
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, first)

	rr := r.withDefaults()
	prefix, err := checkpointPrefix(rr)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := newMachine(rr)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginRun(rr.AccessesPerCore)
	bounds := segmentBounds(m.TotalSteps(), rr.Segments)
	if len(bounds) != 2 {
		t.Fatalf("expected 2 interior bounds, got %v", bounds)
	}

	// Forge the poison: the same configuration with a different seed,
	// frozen at the same offset and encoded under the victim's key. The
	// container is perfectly valid — only the state inside is wrong.
	other := rr
	other.Seed = 99
	om, orr, err := newMachine(other.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	om.BeginRun(orr.AccessesPerCore)
	om.RunTo(bounds[0])
	poison, err := encodeMachine(om, prefix, bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	good, ok := ckStore.Get(prefix, bounds[0])
	if !ok {
		t.Fatal("boundary snapshot missing after serial-with-save")
	}
	if string(good) == string(poison) {
		t.Fatal("poison snapshot equals the genuine one; test is vacuous")
	}
	ckStore.Put(prefix, bounds[0], poison)

	res, err := Execute(r) // parallel pass over the poisoned store
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("fix-up cascade failed to repair the poisoned boundary\nwant: %s\n got: %s", want, got)
	}
	repaired, ok := ckStore.Get(prefix, bounds[0])
	if !ok {
		t.Fatal("boundary snapshot vanished")
	}
	if string(repaired) != string(good) {
		t.Error("store still holds the stale boundary after the fix-up pass")
	}
}

// TestSegmentedCorruptSnapshotFallsBack: a snapshot that fails to restore
// (here: a different machine geometry under the right key) must route the
// run through the serial fallback — identical Results, no panic — and
// rewrite the store.
func TestSegmentedCorruptSnapshotFallsBack(t *testing.T) {
	ckStore.Reset()
	r := Run{Workload: "data-serving", Design: DesignFootprint, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 4_000, Seed: 2, Segments: 2}
	first, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, first)

	rr := r.withDefaults()
	prefix, err := checkpointPrefix(rr)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := newMachine(rr)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginRun(rr.AccessesPerCore)
	bounds := segmentBounds(m.TotalSteps(), rr.Segments)

	// A 4-core machine's state under the 2-core run's key: hash-valid,
	// geometry-skewed.
	skew := rr
	skew.Cores = 4
	sm, srr, err := newMachine(skew.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sm.BeginRun(srr.AccessesPerCore)
	sm.RunTo(bounds[0])
	blob, err := encodeMachine(sm, prefix, bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	ckStore.Put(prefix, bounds[0], blob)

	res, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("serial fallback after restore failure diverged\nwant: %s\n got: %s", want, got)
	}
	// The fallback's serial pass rewrote the boundary; a third execution
	// runs parallel again off the repaired store.
	res, err = Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultJSON(t, res); got != want {
		t.Error("parallel pass after store repair diverged")
	}
}

// TestSampledIgnoresSegments: a sampled run always replays its own warmup,
// so Segments changes nothing about it — not even after a segmented run of
// the same configuration has filled the snapshot store. Acceptance: its CI
// must contain the full-run UIPC.
func TestSampledIgnoresSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full, sampled and segmented executions; skipped in -short")
	}
	spec := SampleSpec{IntervalEvents: 500, GapEvents: 1500, MinIntervals: 4}
	for _, d := range []DesignKind{DesignUnison, DesignNone} {
		r := Run{Workload: "web-search", Design: d, Capacity: 256 << 20,
			Cores: 4, AccessesPerCore: 40_000, Seed: 1}

		ckStore.Reset()
		seg := r
		seg.Segments = 4
		segRes, err := Execute(seg)
		if err != nil {
			t.Fatal(err)
		}
		// A first segmented run saves its segment boundaries and nothing
		// else.
		var offsets []uint64
		for _, k := range ckStore.Keys() {
			offsets = append(offsets, k.Offset)
		}
		slices.Sort(offsets)
		if want := segmentBounds(uint64(r.AccessesPerCore*r.Cores), seg.Segments); !slices.Equal(offsets, want) {
			t.Errorf("%s: store holds offsets %v after the first segmented run, want the segment boundaries %v", d, offsets, want)
		}

		plain := r
		plain.Sampling = spec
		plainRes, err := Execute(plain)
		if err != nil {
			t.Fatal(err)
		}
		withSeg := plain
		withSeg.Segments = 4
		segSampled, err := Execute(withSeg)
		if err != nil {
			t.Fatal(err)
		}
		if segSampled.CI == nil {
			t.Fatal("sampled run with Segments returned no CI")
		}
		pj, sj := resultJSON(t, plainRes), resultJSON(t, segSampled)
		if pj != sj {
			t.Errorf("%s: Segments changed a sampled run\nSegments 0: %s\nSegments 4: %s", d, pj, sj)
		}

		ci := segSampled.CI
		if full := segRes.UIPC; full < ci.UIPC-ci.HalfWidth || full > ci.UIPC+ci.HalfWidth {
			t.Errorf("%s: full-run UIPC %.5f outside sampled CI %.5f ± %.5f",
				d, full, ci.UIPC, ci.HalfWidth)
		}
	}
}

// TestSegmentsValidation: out-of-range Segments fail at the Execute
// boundary; 0 and 1 mean serial and echo through unchanged.
func TestSegmentsValidation(t *testing.T) {
	r := Run{Workload: "web-search", Design: DesignNone, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 1_000, Seed: 1}
	for _, bad := range []int{-1, maxSegments + 1} {
		r.Segments = bad
		if _, err := Execute(r); err == nil {
			t.Errorf("Segments=%d accepted", bad)
		}
	}
	r.Segments = 1
	res, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Segments != 1 {
		t.Errorf("echoed Segments = %d, want 1", res.Run.Segments)
	}
}

// TestSnapshotStoreSharing: every segment count of a configuration
// addresses the same snapshot prefix, so boundary states are computed once
// and shared.
func TestSnapshotStoreSharing(t *testing.T) {
	base := Run{Workload: "tpch", Design: DesignIdeal, Capacity: 128 << 20,
		Cores: 2, AccessesPerCore: 2_000, Seed: 1}.withDefaults()
	p0, err := checkpointPrefix(base)
	if err != nil {
		t.Fatal(err)
	}
	seg := base
	seg.Segments = 8
	p1, err := checkpointPrefix(seg)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != p1 {
		t.Errorf("prefixes differ: serial %s, segmented %s", p0, p1)
	}
	other := base
	other.Seed = 2
	p2, err := checkpointPrefix(other)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p0 {
		t.Error("different seeds share a snapshot prefix")
	}
}
