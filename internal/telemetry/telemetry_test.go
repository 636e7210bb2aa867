package telemetry

import (
	"reflect"
	"testing"

	"unisoncache/internal/cache"
	"unisoncache/internal/dramcache"
)

// row builds a distinguishable machine-wide row for boundary b.
func row(b int) GlobalRow {
	n := uint64(b + 1)
	return GlobalRow{
		Design: dramcache.Snapshot{Counters: dramcache.Counters{Reads: 100 * n, ReadHits: 60 * n, Writes: 10 * n}},
		L2:     cache.Stats{Accesses: 1000 * n, Hits: 700 * n},
	}
}

// crossAll drives every core of a 2-core recorder across the boundaries at
// or below consumed, recording instructions/cycles as simple functions of
// the core and offset, and records the global row of each boundary the
// crossings complete.
func crossAll(r *Recorder, consumed int) {
	for c := 0; c < r.cores; c++ {
		if b, complete := r.Cross(c, consumed, uint64(consumed*(c+2)), uint64(consumed*(c+3))); complete {
			r.Global(b, row(b))
		}
	}
}

func TestNewRecorderRejectsUnorderedOffsets(t *testing.T) {
	for _, bad := range [][]int{{0, 10}, {10, 10}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRecorder accepted offsets %v", bad)
				}
			}()
			NewRecorder(bad, 2, nil)
		}()
	}
}

func TestSyncSkipsCrossedBoundaries(t *testing.T) {
	r := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	if got := r.Bounds(); !reflect.DeepEqual(got, []int{10, 20, 30}) {
		t.Fatalf("bounds = %v, want [10 20 30]", got)
	}
	// A segment starting mid-run: core 0 already stands on boundary 10
	// (at or below counts as crossed), core 1 has not reached it.
	consumed := []int{10, 5}
	r.Sync(func(c int) int { return consumed[c] })
	if r.Next(0) != 20 || r.Next(1) != 10 {
		t.Fatalf("Next = %d, %d after Sync; want 20, 10", r.Next(0), r.Next(1))
	}
	for i, have := range r.haveCore {
		if have {
			t.Fatalf("Sync recorded cell %d; skipped boundaries belong to another recorder", i)
		}
	}
	if !reflect.DeepEqual(r.left, []int{1, 2, 2}) {
		t.Fatalf("left = %v after Sync, want [1 2 2]", r.left)
	}
	// Only core 1 still owes boundary 0, so its crossing completes it.
	if b, complete := r.Cross(1, 10, 1, 1); !complete || b != 0 {
		t.Fatalf("Cross(1, 10) = %d, %v; want boundary 0 complete", b, complete)
	}
	// Sync is idempotent once the cursors agree with the consumed counts.
	consumed = []int{10, 10}
	r.Sync(func(c int) int { return consumed[c] })
	if r.Next(0) != 20 || r.Next(1) != 20 || !reflect.DeepEqual(r.left, []int{0, 2, 2}) {
		t.Fatalf("re-Sync moved cursors: Next %d, %d, left %v", r.Next(0), r.Next(1), r.left)
	}
	if _, complete := r.Cross(0, 20, 1, 1); complete {
		t.Fatal("boundary 1 completed with core 1 still short of it")
	}
	if b, complete := r.Cross(1, 20, 1, 1); !complete || b != 1 {
		t.Fatalf("Cross(1, 20) = %d, %v; want boundary 1 complete", b, complete)
	}
}

func TestAbsorb(t *testing.T) {
	base := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	for _, o := range []*Recorder{
		NewRecorder(Spec{EpochEvents: 5}.Bounds(30), 2, nil),
		NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 3, nil),
		NewRecorder(Spec{EpochEvents: 10}.Bounds(40), 2, nil),
	} {
		if err := base.Absorb(o); err == nil {
			t.Errorf("absorbing %d cores, bounds %v into 2 cores, bounds %v succeeded", o.cores, o.bounds, base.bounds)
		}
	}

	serial := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	for _, at := range []int{10, 20, 30} {
		crossAll(serial, at)
	}
	want, err := serial.Epochs()
	if err != nil {
		t.Fatal(err)
	}

	// Two segments: the first records boundary 0, the second starts past
	// it (Sync skips it) and records the rest.
	first := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	crossAll(first, 10)
	second := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	second.Sync(func(int) int { return 15 })
	crossAll(second, 20)
	crossAll(second, 30)
	if _, err := second.Epochs(); err == nil {
		t.Fatal("a segment missing boundary 0 assembled a full timeline")
	}

	merged := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, nil)
	for _, seg := range []*Recorder{second, first} { // order must not matter
		if err := merged.Absorb(seg); err != nil {
			t.Fatal(err)
		}
	}
	got, err := merged.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged timeline differs from serial:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestGlobalEmitsInOrderOnceComplete(t *testing.T) {
	var emitted []int
	r := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, func(e Epoch) bool {
		emitted = append(emitted, e.Index)
		return true
	})

	// Boundary 0's row completes, but its global row is withheld.
	r.Cross(0, 10, 20, 30)
	r.Cross(1, 10, 30, 40)
	r.Cross(0, 20, 40, 60)
	if _, complete := r.Cross(1, 20, 60, 80); !complete {
		t.Fatal("boundary 1 did not complete")
	}
	r.Global(1, row(1))
	if len(emitted) != 0 {
		t.Fatalf("emitted %v before boundary 0's global row existed", emitted)
	}
	r.Global(0, row(0))
	if !reflect.DeepEqual(emitted, []int{0, 1}) {
		t.Fatalf("emitted %v, want [0 1] in index order", emitted)
	}

	// Boundary 2 has its global row but only one core's cell: no epoch.
	r.Cross(0, 30, 60, 90)
	r.Global(2, row(2))
	if len(emitted) != 2 {
		t.Fatalf("emitted %v with boundary 2's row incomplete", emitted)
	}
	r.Cross(1, 30, 90, 120)
	r.Global(2, row(2))
	if !reflect.DeepEqual(emitted, []int{0, 1, 2}) {
		t.Fatalf("emitted %v, want [0 1 2]", emitted)
	}
}

func TestGlobalStopsWhenEmitDeclines(t *testing.T) {
	var emitted []int
	r := NewRecorder([]int{10, 20, 30}, 2, func(e Epoch) bool {
		emitted = append(emitted, e.Index)
		return e.Index != 0 // decline after the first epoch
	})
	for _, at := range []int{10, 20} {
		r.Cross(0, at, uint64(at), uint64(at))
		r.Cross(1, at, uint64(at), uint64(at))
	}
	// Boundary 1 completes first: epoch 0 still lacks its global row, so
	// nothing drains and the run goes on.
	if !r.Global(1, row(1)) {
		t.Fatal("Global reported a stop before any epoch was emitted")
	}
	// Boundary 0's row makes epochs 0 and 1 assemblable; emit declines
	// epoch 0, so Global reports the stop and epoch 1 stays undrained.
	if r.Global(0, row(0)) {
		t.Fatal("Global did not report the declined emit")
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want [0]: draining must stop at the declined epoch", emitted)
	}
}

func TestEpochsFailsOnMissingCell(t *testing.T) {
	full := NewRecorder(Spec{EpochEvents: 10}.Bounds(25), 2, nil)
	for _, at := range []int{10, 20, 25} {
		crossAll(full, at)
	}
	epochs, err := full.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[2].StartEvents != 20 || epochs[2].EndEvents != 25 {
		t.Fatalf("epochs %+v, want three with a short final [20, 25)", epochs)
	}
	// Epochs tile the region: per-core deltas sum to the last snapshot.
	var instr, reads uint64
	for _, e := range epochs {
		instr += e.Instructions
		reads += e.Reads
	}
	if instr != 25*2+25*3 || reads != row(2).Design.Reads {
		t.Errorf("epoch sums: %d instructions, %d reads; want %d, %d", instr, reads, 25*2+25*3, row(2).Design.Reads)
	}

	noGlobal := NewRecorder(Spec{EpochEvents: 10}.Bounds(25), 2, nil)
	for _, at := range []int{10, 20, 25} {
		for c := 0; c < 2; c++ {
			if b, complete := noGlobal.Cross(c, at, 1, 1); complete && b != 1 {
				noGlobal.Global(b, row(b))
			}
		}
	}
	if _, err := noGlobal.Epochs(); err == nil {
		t.Error("Epochs succeeded with boundary 1's global row missing")
	}

	noCore := NewRecorder(Spec{EpochEvents: 10}.Bounds(25), 2, nil)
	crossAll(noCore, 10)
	noCore.Cross(0, 20, 1, 1)
	noCore.Global(1, row(1))
	if _, err := noCore.Epochs(); err == nil {
		t.Error("Epochs succeeded with core 1's cells missing")
	}
}
