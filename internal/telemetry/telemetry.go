// Package telemetry is the replay engine's one boundary recorder: per-core
// counter snapshots at caller-chosen per-core event offsets in a run's
// measured region, assembled into epochs — the counter deltas between
// consecutive offsets. Boundaries are pure snapshots taken as each core
// crosses them inside the one continuous min-clock-first schedule — no
// barrier, no replay perturbation — so a run's Result is bit-identical
// with recording on or off, and the epochs are bit-identical no matter how
// the run was chunked. Two schedules arm it: epoch-sliced telemetry
// (Spec.Bounds, a fixed stride) and sampled simulation (internal/sample,
// alternating window and gap offsets). Recording only observes: every
// armed run ends at its end.
//
// A recorder records one serial run from its measurement boundary. It
// stores measurement-relative values (per-core deltas since the warmup
// boundary; global statistics, which reset at that boundary), so the
// boundary itself is the implicit all-zero row every first epoch starts
// from.
package telemetry

import (
	"fmt"

	"unisoncache/internal/cache"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/stats"
)

// DefaultEpochEvents is the epoch length applied when a spec enables
// telemetry without choosing one: 10k retired events per core per epoch.
const DefaultEpochEvents = 10_000

// Spec configures epoch-sliced telemetry. The zero value disables it.
type Spec struct {
	// EpochEvents is the epoch length in retired events per core
	// (default DefaultEpochEvents). The final epoch is shorter when the
	// measured region is not a multiple.
	EpochEvents int
}

// Enabled reports whether the spec turns telemetry on.
func (s Spec) Enabled() bool { return s != (Spec{}) }

// WithDefaults fills zero fields of an enabled spec (idempotent).
func (s Spec) WithDefaults() Spec {
	if s.EpochEvents == 0 {
		s.EpochEvents = DefaultEpochEvents
	}
	return s
}

// Validate rejects specs that cannot schedule a timeline.
func (s Spec) Validate() error {
	if s.EpochEvents <= 0 {
		return fmt.Errorf("telemetry: EpochEvents %d must be positive", s.EpochEvents)
	}
	return nil
}

// Bounds returns the fixed-stride epoch schedule of a measured region of
// meas events per core: every EpochEvents events, the last epoch shorter
// when meas is not a multiple (nil when meas is not positive). The spec
// must be defaulted and valid.
func (s Spec) Bounds(meas int) []int {
	if meas <= 0 {
		return nil
	}
	bounds := make([]int, 0, s.Epochs(meas))
	for end := s.EpochEvents; end < meas; end += s.EpochEvents {
		bounds = append(bounds, end)
	}
	return append(bounds, meas)
}

// Epochs returns how many epochs Bounds cuts meas events per core into —
// its length, computed without allocating.
func (s Spec) Epochs(meas int) int {
	if meas <= 0 {
		return 0
	}
	n := meas / s.EpochEvents
	if meas%s.EpochEvents != 0 {
		n++
	}
	return n
}

// CoreRow is one core's retired instructions and elapsed cycles. The
// recorder stores it as a boundary snapshot relative to the
// warmup/measurement boundary; an assembled Epoch carries it as the core's
// share of the slice — the delta between two snapshots.
type CoreRow struct {
	Instructions uint64
	Cycles       uint64
}

// GlobalRow is the machine-wide statistics snapshot taken once per epoch
// boundary, after the last core has crossed it. All four sections reset at
// the warmup/measurement boundary, so the values are measurement-relative
// by construction.
type GlobalRow struct {
	Design  dramcache.Snapshot
	Stacked dram.Stats
	Offchip dram.Stats
	L2      cache.Stats
}

// Epoch is one assembled timeline slice: the counter deltas between two
// consecutive boundaries. Start/EndEvents are per-core measured-event
// offsets; [StartEvents, EndEvents) is the slice every core contributed.
type Epoch struct {
	Index       int
	StartEvents int
	EndEvents   int

	// UIPC is the summed per-core IPC over the epoch — the same estimator
	// Results.UIPC uses for the whole measured region. Instructions is the
	// epoch's total; Cycles the maximum per-core cycle delta.
	UIPC         float64
	Instructions uint64
	Cycles       uint64
	PerCore      []CoreRow

	// DRAM cache design deltas.
	Reads, ReadHits, Writes                        uint64
	WayPredHits, WayPredLookups                    uint64
	TriggerMisses, UnderpredMisses, SingletonSkips uint64
	OffchipReadBytes, OffchipWriteBytes            uint64

	// DRAM controller occupancy: CPU cycles each part's data buses were
	// busy during the epoch.
	StackedBusyCycles, OffchipBusyCycles uint64

	// Shared L2 activity.
	L2Accesses, L2Hits uint64
}

// Recorder accumulates boundary snapshots for one run. The replay engine
// drives it: Next tells the clamp-and-park driver where each core must
// stop, Cross records a core's crossing, Global records the machine-wide
// row once a boundary completes and emits its epoch.
type Recorder struct {
	cores  int
	bounds []int // ascending per-core event offsets; the last ends the region

	coreRows []CoreRow // [b*cores+c]
	globals  []GlobalRow

	cursor []int // per core: next boundary index to cross
	next   []int // per core: bounds[cursor[c]], or maxInt when done
	left   []int // per boundary: cores yet to cross it

	emit func(Epoch)
}

const maxInt = int(^uint(0) >> 1)

// NewRecorder builds a recorder over the given core count for boundaries
// at bounds: per-core measured-event offsets, strictly ascending and
// positive (the measurement boundary itself is the implicit all-zero row
// 0). Epoch b spans [bounds[b-1], bounds[b]), so the last offset ends the
// recorded region. emit, when non-nil, is invoked with each epoch the
// moment its closing boundary completes.
func NewRecorder(bounds []int, cores int, emit func(Epoch)) *Recorder {
	for i, b := range bounds {
		if b <= 0 || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: boundary offsets %v are not strictly ascending and positive", bounds))
		}
	}
	r := &Recorder{cores: cores, emit: emit}
	if cores <= 0 || len(bounds) == 0 {
		return r
	}
	r.bounds = bounds
	n := len(r.bounds)
	r.coreRows = make([]CoreRow, n*cores)
	r.globals = make([]GlobalRow, n)
	r.cursor = make([]int, cores)
	r.next = make([]int, cores)
	r.left = make([]int, n)
	for c := range r.next {
		r.next[c] = r.bounds[0]
	}
	for b := range r.left {
		r.left[b] = cores
	}
	return r
}

// Next returns the measured-event offset of core c's next uncrossed
// boundary (maxInt once the core has crossed them all). The execution
// loop clamps core budgets here so it can run the plain replay loop with
// no per-step telemetry checks at all: a core whose clamped budget runs
// out is standing exactly on its boundary.
func (r *Recorder) Next(c int) int { return r.next[c] }

// Cross records core c's snapshot at every boundary at or below consumed
// (at most one per step, since consumed advances by one). It returns the
// boundary that just completed — every core has crossed it — if any; the
// caller then takes the machine-wide snapshot and calls Global.
func (r *Recorder) Cross(c, consumed int, instr, cycles uint64) (boundary int, complete bool) {
	for r.cursor[c] < len(r.bounds) && r.bounds[r.cursor[c]] <= consumed {
		b := r.cursor[c]
		r.coreRows[b*r.cores+c] = CoreRow{Instructions: instr, Cycles: cycles}
		r.cursor[c]++
		if r.left[b]--; r.left[b] == 0 {
			boundary, complete = b, true
		}
	}
	if r.cursor[c] < len(r.bounds) {
		r.next[c] = r.bounds[r.cursor[c]]
	} else {
		r.next[c] = maxInt
	}
	return boundary, complete
}

// Global records the machine-wide statistics row for completed boundary b
// and emits epoch b. Boundaries complete in ascending order — every core
// crosses b before b+1 — so epoch b is always assemblable here.
func (r *Recorder) Global(b int, row GlobalRow) {
	r.globals[b] = row
	if r.emit != nil {
		r.emit(r.epoch(b))
	}
}

// Epochs assembles the complete timeline. It fails if some core never
// crossed a boundary (a run that did not finish). A recorder with no
// boundaries yields an empty, non-nil slice, so a Result's empty timeline
// encodes as [] rather than null.
func (r *Recorder) Epochs() ([]Epoch, error) {
	epochs := make([]Epoch, len(r.bounds))
	for b := range r.bounds {
		if r.left[b] != 0 {
			return nil, fmt.Errorf("telemetry: %d of %d cores never crossed boundary %d (offset %d)", r.left[b], r.cores, b, r.bounds[b])
		}
		epochs[b] = r.epoch(b)
	}
	return epochs, nil
}

// epoch assembles boundary b's slice from rows b-1 and b (row -1 is the
// measurement boundary itself: all-zero, since every stored value is
// measurement-relative).
func (r *Recorder) epoch(b int) Epoch {
	e := Epoch{Index: b, EndEvents: r.bounds[b], PerCore: make([]CoreRow, r.cores)}
	var prevG GlobalRow
	if b > 0 {
		e.StartEvents = r.bounds[b-1]
		prevG = r.globals[b-1]
	}
	for c := 0; c < r.cores; c++ {
		cur := r.coreRows[b*r.cores+c]
		var prev CoreRow
		if b > 0 {
			prev = r.coreRows[(b-1)*r.cores+c]
		}
		d := CoreRow{Instructions: cur.Instructions - prev.Instructions, Cycles: cur.Cycles - prev.Cycles}
		e.PerCore[c] = d
		e.Instructions += d.Instructions
		if d.Cycles > e.Cycles {
			e.Cycles = d.Cycles
		}
		if d.Cycles > 0 {
			e.UIPC += float64(d.Instructions) / float64(d.Cycles)
		}
	}
	cur := r.globals[b]
	e.Reads = cur.Design.Reads - prevG.Design.Reads
	e.ReadHits = cur.Design.ReadHits - prevG.Design.ReadHits
	e.Writes = cur.Design.Writes - prevG.Design.Writes
	e.TriggerMisses = cur.Design.TriggerMisses - prevG.Design.TriggerMisses
	e.UnderpredMisses = cur.Design.UnderpredMisses - prevG.Design.UnderpredMisses
	e.SingletonSkips = cur.Design.SingletonSkips - prevG.Design.SingletonSkips
	e.OffchipReadBytes = cur.Design.OffchipReadBytes - prevG.Design.OffchipReadBytes
	e.OffchipWriteBytes = cur.Design.OffchipWriteBytes - prevG.Design.OffchipWriteBytes
	e.WayPredHits, e.WayPredLookups = ratioDelta(cur.Design.WP, prevG.Design.WP)
	e.StackedBusyCycles = cur.Stacked.BusBusyCPU - prevG.Stacked.BusBusyCPU
	e.OffchipBusyCycles = cur.Offchip.BusBusyCPU - prevG.Offchip.BusBusyCPU
	e.L2Accesses = cur.L2.Accesses - prevG.L2.Accesses
	e.L2Hits = cur.L2.Hits - prevG.L2.Hits
	return e
}

// ratioDelta subtracts two (possibly nil) predictor ratio snapshots. A nil
// ratio means the design lacks the predictor: zero activity.
func ratioDelta(cur, prev *stats.Ratio) (num, den uint64) {
	if cur == nil {
		return 0, 0
	}
	num, den = cur.Num, cur.Den
	if prev != nil {
		num -= prev.Num
		den -= prev.Den
	}
	return num, den
}

// HitRatio returns the epoch's DRAM-cache demand-read hit fraction, 0 when
// the epoch saw no reads.
func (e Epoch) HitRatio() float64 {
	if e.Reads == 0 {
		return 0
	}
	return float64(e.ReadHits) / float64(e.Reads)
}

// WayPredMisses returns the epoch's mispredicted way-predictor lookups.
func (e Epoch) WayPredMisses() uint64 { return e.WayPredLookups - e.WayPredHits }

// L2HitRatio returns the epoch's shared-L2 hit fraction via the same
// NaN-safe rule as cache.Stats.HitRatio.
func (e Epoch) L2HitRatio() float64 {
	return cache.Stats{Accesses: e.L2Accesses, Hits: e.L2Hits}.HitRatio()
}
