package sim

import (
	"bytes"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
)

// unisonDesign builds the paper's design at test scale for machine-level
// resume tests: small enough to churn evictions, large enough that the
// request mix covers hits, misses and write-backs.
func unisonDesign(s, o *dram.Controller) dramcache.Design {
	u, err := core.New(core.Config{
		CapacityBytes: 1 << 20,
		LabelBytes:    32 << 20,
		PageBlocks:    15,
		Ways:          4,
	}, s, o)
	if err != nil {
		panic(err)
	}
	return u
}

// resultsEqual compares two Results by value. The Design snapshot's ratio
// fields are pointers, so they are dereferenced first and the structs
// compared with the pointers cleared.
func resultsEqual(a, b Results) bool {
	ra, rb := a.Design, b.Design
	if (ra.WP == nil) != (rb.WP == nil) || (ra.WP != nil && *ra.WP != *rb.WP) {
		return false
	}
	if (ra.FP == nil) != (rb.FP == nil) || (ra.FP != nil && *ra.FP != *rb.FP) {
		return false
	}
	if (ra.FO == nil) != (rb.FO == nil) || (ra.FO != nil && *ra.FO != *rb.FO) {
		return false
	}
	if (ra.MP == nil) != (rb.MP == nil) || (ra.MP != nil && *ra.MP != *rb.MP) {
		return false
	}
	ra.FP, ra.FO, ra.WP, ra.MP = nil, nil, nil, nil
	rb.FP, rb.FO, rb.WP, rb.MP = nil, nil, nil, nil
	a.Design, b.Design = dramcache.Snapshot{}, dramcache.Snapshot{}
	return a == b && ra == rb
}

// machineCheckpoint serializes a machine's full state.
func machineCheckpoint(t *testing.T, m *Machine) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	m.SaveState(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return w.Bytes()
}

// TestRunToChunkedAcrossWarmup pins the warmup→measurement seam: a run
// chunked to stop just shy of the boundary step, then exactly on it, must
// finish bit-identical to an uninterrupted Run, down to the checkpoint
// bytes — the ResetStats boundary fires at the same global step however
// RunTo is chunked.
func TestRunToChunkedAcrossWarmup(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	cfg.L2.SizeBytes = 256 << 10
	const accesses = 4000

	ref := testMachine(t, cfg, "web-search", unisonDesign)
	rr := ref.Run(accesses)

	m := testMachine(t, cfg, "web-search", unisonDesign)
	m.BeginRun(accesses)
	m.RunTo(m.WarmSteps() - 3) // just shy of the boundary
	m.RunTo(m.WarmSteps())     // cross it
	rm := m.FinishRun()

	if !resultsEqual(rr, rm) {
		t.Errorf("results diverge across warmup boundary chunking:\nref     %+v\nchunked %+v", rr, rm)
	}
	if !bytes.Equal(machineCheckpoint(t, ref), machineCheckpoint(t, m)) {
		t.Error("checkpoint bytes diverge after boundary-chunked run")
	}
}

// TestCheckpointRestoreMidWarmup checkpoints a run a third of the way in
// (mid-warmup) and restores it into a fresh machine: the restored run must
// finish bit-identical to an uninterrupted Run, down to the checkpoint
// bytes.
func TestCheckpointRestoreMidWarmup(t *testing.T) {
	cfg := Default()
	cfg.Cores = 4
	cfg.L2.SizeBytes = 256 << 10
	const accesses = 5000

	ref := testMachine(t, cfg, "data-serving", unisonDesign)
	rr := ref.Run(accesses)

	saver := testMachine(t, cfg, "data-serving", unisonDesign)
	saver.BeginRun(accesses)
	saver.RunTo(saver.TotalSteps() / 3)
	blob := machineCheckpoint(t, saver)

	restored := testMachine(t, cfg, "data-serving", unisonDesign)
	restored.BeginRun(accesses)
	if err := restored.LoadState(checkpoint.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	rs := restored.FinishRun()

	if !resultsEqual(rr, rs) {
		t.Errorf("restored run diverges from uninterrupted run:\nref      %+v\nrestored %+v", rr, rs)
	}
	if !bytes.Equal(machineCheckpoint(t, ref), machineCheckpoint(t, restored)) {
		t.Error("checkpoint bytes diverge after restored run")
	}
}
