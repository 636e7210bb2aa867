package unisoncache

import (
	"bytes"
	"fmt"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/runner"
	"unisoncache/internal/sim"
	"unisoncache/internal/telemetry"
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
// RunKey of the configuration with Segments and Telemetry stripped. Every
// segment count and a telemetry-observed run of the same underlying
// configuration replay the same event schedule up to any boundary —
// telemetry records without perturbing and checkpoints carry no recorder
// state — so they deliberately share snapshots. Sampled runs never reach
// the store (they ignore Segments).
func checkpointPrefix(r Run) (string, error) {
	r.Segments = 0
	r.Telemetry = TelemetrySpec{}
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
func executeSegmented(r Run, onEpoch func(TimelineEpoch)) (Result, error) {
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
		return segmentedSerialSave(m, rr, prefix, bounds, onEpoch)
	}
	res, err := segmentedParallel(m, rr, prefix, total, bounds, blobs, onEpoch)
	if err != nil {
		// A snapshot failed to restore (corrupt entry, geometry skew after
		// a code change): fall back to the serial pass, which also rewrites
		// every boundary and so repairs the store. Segment 0 has advanced
		// m, so the pass replays on a fresh machine.
		if m, _, err = newMachine(r); err != nil {
			return Result{}, err
		}
		m.BeginRun(rr.AccessesPerCore)
		return segmentedSerialSave(m, rr, prefix, bounds, onEpoch)
	}
	return res, nil
}

// segmentedSerialSave replays the run serially on the prepared machine,
// saving a snapshot at every segment boundary. Snapshot encoding failures
// are not errors — a source without checkpoint support simply leaves the
// store unpopulated and every execution serial. With telemetry enabled the
// one machine records the whole timeline and streams epochs live.
func segmentedSerialSave(m *sim.Machine, rr Run, prefix string, bounds []uint64, onEpoch func(TimelineEpoch)) (Result, error) {
	if rr.Telemetry.Enabled() {
		m.Observe(rr.Telemetry.Bounds, emitFunc(onEpoch))
	}
	for _, t := range bounds {
		m.RunTo(t)
		if blob, err := encodeMachine(m, prefix, t); err == nil {
			ckStore.Put(prefix, t, blob)
		}
	}
	res := Result{Results: m.FinishRun(), Run: rr}
	if rr.Telemetry.Enabled() {
		tl, err := timelineFrom(m.Recorder(), rr.Telemetry)
		if err != nil {
			return Result{}, err
		}
		res.Timeline = tl
	}
	return res, nil
}

// segOut is one segment worker's product: interior segments hand back
// their encoded end state, the last segment the run's Results. With
// telemetry enabled each segment also carries its recorder — the sparse
// set of boundary cells its step range crossed — for the merge.
type segOut struct {
	endBlob []byte
	res     sim.Results
	tele    *telemetry.Recorder
	err     error
}

// runSegment simulates one segment up to the end offset: segment 0
// (start == nil) on m, the machine executeSegmented built to compute the
// bounds, every later segment on a private machine restored from its
// boundary snapshot. The last segment completes the run and collects
// Results — bit-identical to serial because its whole state, statistics
// counters included, came through the checkpoint chain. Telemetry cells
// are measurement-relative, so a segment records exactly the values the
// serial run would for the boundaries its steps cross; the recorder's Sync
// skips boundaries crossed before the segment (they belong to segments to
// the left).
func runSegment(m *sim.Machine, rr Run, prefix string, start []byte, startOff, end uint64, last bool) segOut {
	if start != nil {
		restored, _, err := restoreMachine(rr, prefix, startOff, start)
		if err != nil {
			return segOut{err: err}
		}
		m = restored
	}
	if rr.Telemetry.Enabled() {
		m.Observe(rr.Telemetry.Bounds, nil)
	}
	if last {
		return segOut{res: m.FinishRun(), tele: m.Recorder()}
	}
	m.RunTo(end)
	blob, err := encodeMachine(m, prefix, end)
	if err != nil {
		return segOut{err: err}
	}
	return segOut{endBlob: blob, tele: m.Recorder()}
}

// segmentedParallel runs every segment concurrently — segment 0 on the
// prepared machine m, the rest from the stored boundary snapshots — then
// merges left to right: segment i's computed end state must byte-equal the
// snapshot segment i+1 started from (the encoding is deterministic, so
// state identity is byte identity). A mismatch means the store carried a
// stale boundary — the authoritative state is written back and the next
// segment re-runs from it; the cascade proceeds only while mismatches keep
// propagating. The final segment's Results therefore always descend from
// an authoritative state chain. Telemetry merges the same way: each
// segment's recorder holds the cells its (authoritative) step range
// crossed, a re-run replaces the stale segment's recorder wholesale, and
// the union assembles the timeline the serial run records, bit for bit.
func segmentedParallel(m *sim.Machine, rr Run, prefix string, total uint64, bounds []uint64, blobs [][]byte, onEpoch func(TimelineEpoch)) (Result, error) {
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
	res := Result{Results: outs[k-1].res, Run: rr}
	if rr.Telemetry.Enabled() {
		// Union the segments' sparse cell sets left to right (a segment
		// that never reached the measurement phase has no recorder).
		var merged *telemetry.Recorder
		for _, o := range outs {
			if o.tele == nil {
				continue
			}
			if merged == nil {
				merged = o.tele
				continue
			}
			if err := merged.Absorb(o.tele); err != nil {
				return Result{}, err
			}
		}
		tl, err := timelineFrom(merged, rr.Telemetry)
		if err != nil {
			return Result{}, err
		}
		res.Timeline = tl
		if onEpoch != nil {
			for _, e := range tl.Epochs {
				onEpoch(e)
			}
		}
	}
	return res, nil
}
