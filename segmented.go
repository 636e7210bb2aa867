package unisoncache

import (
	"bytes"
	"fmt"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/runner"
	"unisoncache/internal/sim"
)

// maxSegments bounds Run.Segments. Far beyond any useful parallelism —
// a segment shorter than the warmup transient measures nothing — it exists
// so a corrupt request cannot demand an absurd worker fan-out.
const maxSegments = 1024

// ckStore is the process-wide snapshot store backing time-parallel replay.
// 512 MB holds the boundary states of dozens of sweep-sized
// configurations; least-recently-used entries age out, which only costs a
// future run its parallel fast path, never correctness.
var ckStore = checkpoint.NewStore(512 << 20)

// checkpointPrefix returns the snapshot-store key prefix of a run: the
// RunKey of the configuration with Segments stripped, so every segment
// count of the same configuration shares snapshots. A run's state at an
// offset is a function of the offset and of the segment count that wrote
// it: every core folds L1 hits, a fold stops at every RunTo target, and
// the count sets the targets before the offset. The serial-with-save pass
// and every repeat of one count stop at the same targets, so their
// snapshots agree. A snapshot that another count wrote at a shared offset
// fails the merge's byte comparison and triggers a fix-up: it costs time,
// never correctness. Sampled and telemetry runs never reach the store
// (they ignore Segments).
func checkpointPrefix(r Run) (string, error) {
	r.Segments = 0
	return RunKey(r)
}

// segmentBounds returns the interior segment boundaries of a total-step
// run split k ways: global step offsets total*i/k for i in 1..k-1, with
// duplicates and the trivial 0/total offsets dropped (a non-divisor k or a
// tiny run simply yields fewer, unevenly sized segments).
func segmentBounds(total uint64, k int) []uint64 {
	bounds := make([]uint64, 0, k-1)
	prev := uint64(0)
	for i := 1; i < k; i++ {
		b := total * uint64(i) / uint64(k) // total ≤ 2^41ish, k ≤ 1024: no overflow
		if b == prev || b == 0 || b == total {
			continue
		}
		bounds = append(bounds, b)
		prev = b
	}
	return bounds
}

// encodeMachine freezes the machine into a snapshot container keyed by
// (prefix, offset). It fails — rather than silently truncating — when any
// subsystem cannot serialize (a custom trace.Source without checkpoint
// support).
func encodeMachine(m *sim.Machine, prefix string, offset uint64) ([]byte, error) {
	w := checkpoint.NewWriter()
	m.SaveState(w)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return checkpoint.EncodeSnapshot(prefix, offset, w.Bytes()), nil
}

// restoreMachine validates a store blob against the key it was fetched
// under, builds a fresh machine for the run and restores the snapshot into
// it. The machine resumes the run's schedule exactly where the snapshot
// froze it.
func restoreMachine(r Run, prefix string, offset uint64, blob []byte) (*sim.Machine, Run, error) {
	p, off, payload, err := checkpoint.ReadSnapshot(blob)
	if err != nil {
		return nil, Run{}, err
	}
	if p != prefix || off != offset {
		return nil, Run{}, fmt.Errorf("unisoncache: snapshot stored under (%q, %d) claims key (%q, %d)", prefix, offset, p, off)
	}
	m, rr, err := newMachine(r)
	if err != nil {
		return nil, Run{}, err
	}
	rd := checkpoint.NewReader(payload)
	if err := m.LoadState(rd); err != nil {
		return nil, Run{}, err
	}
	if err := rd.Finish(); err != nil {
		return nil, Run{}, err
	}
	return m, rr, nil
}

// executeSegmented runs a Segments >= 2 configuration time-parallel
// (DESIGN.md §11). The first execution of a configuration has no boundary
// snapshots, so it simulates serially while writing them; repeat
// executions restore every segment's start state concurrently and stitch
// the segments together with a deterministic fix-up pass. Either way the
// Results are bit-identical to the serial replay.
func executeSegmented(r Run) (Result, error) {
	prefix, err := checkpointPrefix(r)
	if err != nil {
		return Result{}, err
	}
	m, rr, err := newMachine(r)
	if err != nil {
		return Result{}, err
	}
	m.BeginRun(rr.AccessesPerCore)
	total := m.TotalSteps()
	bounds := segmentBounds(total, rr.Segments)

	// All-or-nothing: segments run concurrently only when every boundary
	// snapshot is present, because a missing interior snapshot stalls every
	// segment to its right anyway.
	blobs := make([][]byte, len(bounds))
	have := len(bounds) > 0
	for i, b := range bounds {
		blob, ok := ckStore.Get(prefix, b)
		if !ok {
			have = false
			break
		}
		blobs[i] = blob
	}
	if !have {
		return segmentedSerialSave(m, rr, prefix, bounds), nil
	}
	res, err := segmentedParallel(m, rr, prefix, total, bounds, blobs)
	if err != nil {
		// A snapshot failed to restore (corrupt entry, geometry skew after
		// a code change): fall back to the serial pass, which also rewrites
		// every boundary and so repairs the store. Segment 0 has advanced
		// m, so the pass replays on a fresh machine.
		if m, _, err = newMachine(r); err != nil {
			return Result{}, err
		}
		m.BeginRun(rr.AccessesPerCore)
		return segmentedSerialSave(m, rr, prefix, bounds), nil
	}
	return res, nil
}

// segmentedSerialSave replays the run serially on the prepared machine,
// saving a snapshot at every segment boundary. Snapshot encoding failures
// are not errors — a source without checkpoint support simply leaves the
// store unpopulated and every execution serial.
func segmentedSerialSave(m *sim.Machine, rr Run, prefix string, bounds []uint64) Result {
	for _, t := range bounds {
		m.RunTo(t)
		if blob, err := encodeMachine(m, prefix, t); err == nil {
			ckStore.Put(prefix, t, blob)
		}
	}
	return Result{Results: m.FinishRun(), Run: rr}
}

// segOut is one segment worker's product: interior segments hand back
// their encoded end state, the last segment the run's Results.
type segOut struct {
	endBlob []byte
	res     sim.Results
	err     error
}

// runSegment simulates one segment up to the end offset: segment 0
// (start == nil) on m, the machine executeSegmented built to compute the
// bounds, every later segment on a private machine restored from its
// boundary snapshot. The last segment completes the run and collects
// Results — bit-identical to serial because its whole state, statistics
// counters included, came through the checkpoint chain.
func runSegment(m *sim.Machine, rr Run, prefix string, start []byte, startOff, end uint64, last bool) segOut {
	if start != nil {
		restored, _, err := restoreMachine(rr, prefix, startOff, start)
		if err != nil {
			return segOut{err: err}
		}
		m = restored
	}
	if last {
		return segOut{res: m.FinishRun()}
	}
	m.RunTo(end)
	blob, err := encodeMachine(m, prefix, end)
	if err != nil {
		return segOut{err: err}
	}
	return segOut{endBlob: blob}
}

// segmentedParallel runs every segment concurrently — segment 0 on the
// prepared machine m, the rest from the stored boundary snapshots — then
// merges left to right: segment i's computed end state must byte-equal the
// snapshot segment i+1 started from (the encoding is deterministic, so
// state identity is byte identity). A mismatch means the store carried a
// stale boundary — the authoritative state is written back and the next
// segment re-runs from it; the cascade proceeds only while mismatches keep
// propagating. The final segment's Results therefore always descend from
// an authoritative state chain.
func segmentedParallel(m *sim.Machine, rr Run, prefix string, total uint64, bounds []uint64, blobs [][]byte) (Result, error) {
	k := len(bounds) + 1
	endOf := func(i int) uint64 {
		if i < len(bounds) {
			return bounds[i]
		}
		return total
	}
	startOf := func(i int) (blob []byte, off uint64) {
		if i == 0 {
			return nil, 0
		}
		return blobs[i-1], bounds[i-1]
	}

	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	// One worker per segment: segments are few and the whole point is
	// overlapping their wall-clock, so the pool never throttles them.
	outs, err := runner.Map(idx, func(i int) (segOut, error) {
		blob, off := startOf(i)
		o := runSegment(m, rr, prefix, blob, off, endOf(i), i == k-1)
		return o, o.err
	}, runner.Options{Jobs: k})
	if err != nil {
		return Result{}, err
	}

	for i := 0; i+1 < k; i++ {
		if bytes.Equal(outs[i].endBlob, blobs[i]) {
			continue
		}
		ckStore.Put(prefix, bounds[i], outs[i].endBlob)
		outs[i+1] = runSegment(nil, rr, prefix, outs[i].endBlob, bounds[i], endOf(i+1), i+1 == k-1)
		if outs[i+1].err != nil {
			return Result{}, outs[i+1].err
		}
	}
	return Result{Results: outs[k-1].res, Run: rr}, nil
}
