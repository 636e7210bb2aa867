package telemetry

import (
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

// TestEpochsCountsBounds: Epochs is the length of the schedule Bounds
// lays out, for every measured length, short final epochs included.
func TestEpochsCountsBounds(t *testing.T) {
	for _, e := range []int{1, 3, 10} {
		s := Spec{EpochEvents: e}
		for meas := -1; meas <= 35; meas++ {
			if got, want := s.Epochs(meas), len(s.Bounds(meas)); got != want {
				t.Errorf("EpochEvents %d over %d events: Epochs = %d, Bounds holds %d", e, meas, got, want)
			}
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

// TestCoreRunsAhead: a core two boundaries ahead of the others records its
// cells as it goes, but no boundary completes until the last core crosses
// it, and then in ascending order.
func TestCoreRunsAhead(t *testing.T) {
	var emitted []Epoch
	r := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, func(e Epoch) {
		emitted = append(emitted, e)
	})
	for _, at := range []int{10, 20} {
		if _, complete := r.Cross(0, at, uint64(2*at), uint64(3*at)); complete {
			t.Fatalf("boundary at %d completed with core 1 short of it", at)
		}
	}
	if r.Next(0) != 30 || r.Next(1) != 10 {
		t.Fatalf("Next = %d, %d; want 30, 10", r.Next(0), r.Next(1))
	}
	for b, at := range []int{10, 20} {
		got, complete := r.Cross(1, at, uint64(5*at), uint64(7*at))
		if !complete || got != b {
			t.Fatalf("Cross(1, %d) = %d, %v; want boundary %d complete", at, got, complete, b)
		}
		r.Global(b, row(b))
	}
	if len(emitted) != 2 {
		t.Fatalf("emitted %d epochs, want 2", len(emitted))
	}
	// Core 0's second-epoch share is the delta between its own rows.
	if got, want := emitted[1].PerCore[0], (CoreRow{Instructions: 20, Cycles: 30}); got != want {
		t.Errorf("epoch 1 core 0 = %+v, want %+v", got, want)
	}
	if got, want := emitted[1].PerCore[1], (CoreRow{Instructions: 50, Cycles: 70}); got != want {
		t.Errorf("epoch 1 core 1 = %+v, want %+v", got, want)
	}
}

// TestGlobalEmitsInOrderOnceComplete: each boundary's epoch is emitted by
// the Global call of the crossing that completed it, in index order.
func TestGlobalEmitsInOrderOnceComplete(t *testing.T) {
	var emitted []int
	r := NewRecorder(Spec{EpochEvents: 10}.Bounds(30), 2, func(e Epoch) {
		emitted = append(emitted, e.Index)
	})
	for b, at := range []int{10, 20, 30} {
		if _, complete := r.Cross(0, at, uint64(at), uint64(at)); complete {
			t.Fatalf("boundary %d completed with one core across", b)
		}
		got, complete := r.Cross(1, at, uint64(at), uint64(at))
		if !complete || got != b {
			t.Fatalf("Cross(1, %d) = %d, %v; want boundary %d complete", at, got, complete, b)
		}
		if len(emitted) != b {
			t.Fatalf("emitted %v before boundary %d's global row", emitted, b)
		}
		r.Global(b, row(b))
		if len(emitted) != b+1 || emitted[b] != b {
			t.Fatalf("emitted %v after Global(%d), want [0..%d]", emitted, b, b)
		}
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

	// Core 1 never crossed boundary 1 (its run did not finish).
	noCore := NewRecorder(Spec{EpochEvents: 10}.Bounds(25), 2, nil)
	crossAll(noCore, 10)
	noCore.Cross(0, 20, 1, 1)
	if _, err := noCore.Epochs(); err == nil {
		t.Error("Epochs succeeded with core 1 short of boundary 1")
	}
}
