// Package sim is the trace-replay timing engine that stands in for the
// paper's Flexus full-system simulation (§IV-A). Sixteen cores replay
// workload event sources — live synthetic streams or recorded traces,
// anything implementing trace.Source — through private L1 data caches and a
// shared L2; L2 misses go to the DRAM cache design under test, which in turn uses
// the shared stacked and off-chip DRAM timing models. Contention emerges
// from the shared DRAM bank/bus reservations; cores are advanced
// minimum-clock-first so their clocks stay interleaved. A replay of a
// recorded capture may take each core's L1 outcomes from streams built
// once per capture (UseL1Outcomes) instead of looking them up. Every
// core, whether it simulates its L1 or reads outcome streams, folds its
// L1 hits out of the schedule, consuming the hits that follow each of its
// steps in one pass, since a hit touches nothing another core sees
// (DESIGN.md §8).
//
// The core model: one instruction per cycle while not stalled; a load that
// misses the L1 stalls the core for the portion of its latency an
// out-of-order window cannot hide (HideCycles); stores retire through a
// write buffer without stalling. The paper's performance metric — user
// instructions per cycle, "shown to accurately reflect overall server
// throughput" — is the sum of per-core IPCs over the measured interval.
package sim

import (
	"fmt"
	"math/bits"

	"unisoncache/internal/cache"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/telemetry"
	"unisoncache/internal/trace"
)

// Config describes the CMP of Table III.
type Config struct {
	Cores int
	L1    cache.Config
	L2    cache.Config
	// HideCycles is the memory latency (beyond the L1) that the 3-way OoO
	// core can overlap with useful work. It is the only overlap the core
	// model has: the residual stall is charged in full, never divided by a
	// memory-level-parallelism factor, because the DRAM parts are shared
	// absolute-time reservation models, and a divisor would let cores issue
	// faster than the memory system's service rate and grow its queues
	// without bound.
	HideCycles uint64
	// WarmupFrac is the fraction of each run discarded before measurement
	// (the paper uses two thirds of its traces for warmup).
	WarmupFrac float64
}

// Default returns the Table III baseline: 16 cores, 64 KB L1d (2-cycle),
// 4 MB 16-way L2 (13-cycle).
func Default() Config {
	return Config{
		Cores:      16,
		L1:         cache.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, Latency: 2},
		L2:         cache.Config{Name: "L2", SizeBytes: 4 << 20, Ways: 16, Latency: 13},
		HideCycles: 30,
		WarmupFrac: 2.0 / 3.0,
	}
}

// Warmup returns how many of a core's accessesPerCore events a full run
// discards as warmup: the first WarmupFrac of them.
func (c Config) Warmup(accessesPerCore int) int {
	return int(float64(accessesPerCore) * c.WarmupFrac)
}

// Machine wires cores, caches, a DRAM cache design and the DRAM parts into
// a runnable system.
type Machine struct {
	cfg     Config
	cores   []coreState
	l2      *cache.Cache
	design  dramcache.Design
	stacked *dram.Controller
	offchip *dram.Controller

	// remaining is replay's per-core event budget, kept on the machine so
	// the steady-state loop allocates nothing.
	remaining []int
	// tree is a tournament (winner) tree over packed scheduling keys:
	// node n holds clock<<shift|core for the winner of its subtree,
	// tree[leaves+i] the leaf key of core i (+inf sentinel when exhausted
	// or absent), tree[1] the next core to step. Packing the core index
	// into the key's low bits makes every match one branchless uint64 min
	// — comparing keys compares clocks first and breaks ties toward the
	// lower index, the same core a linear rescan with lowest-index
	// tie-breaking would pick — at a cost of log2(cores) node updates per
	// step instead of a full scan, with no side lookup into a clock
	// array. Sound while clocks stay below 2^(64-shift), ~2^60 cycles at
	// sixteen cores.
	tree   []uint64
	leaves int
	shift  uint

	// run is the run cursor: BeginRun/RunTo express a run as a resumable
	// sequence of bounded steps, which is what lets a checkpoint freeze a
	// run mid-flight and a restored machine continue it bit-identically.
	run runState

	// bounds and emit arm the boundary recorder (Observe): telemetry's
	// fixed-stride epochs or a sampled run's windows and gaps. rec is the
	// run's recorder, created when the measurement phase first advances;
	// it records the run from the measurement boundary on. Unarmed
	// (bounds nil), RunTo selects plain continuePhase, which never enters
	// the clamp-and-park driver: recording disabled costs nothing.
	bounds func(meas int) []int
	emit   func(telemetry.Epoch)
	rec    *telemetry.Recorder
	// clamp is clampAndPark's scratch: per core, the events withheld from
	// remaining while the countdown is clamped at the core's next
	// boundary. Always all-zero outside clampAndPark, so it never enters
	// checkpoints.
	clamp []int
}

// runState tracks a full run's progress in global steps — events executed
// across all cores in the one serial min-clock-first schedule. Because
// every core executes exactly eventsPerCore events within a phase, the
// warmup/measurement boundary always falls at cores×warm global steps
// regardless of interleaving, making (phase, step) plus the per-core
// remaining budgets a complete description of where the schedule stands.
type runState struct {
	accesses int    // per-core event budget of the whole run
	warm     int    // per-core warmup events (accesses × WarmupFrac)
	phase    uint8  // 0 = not started, 1 = warmup, 2 = measurement
	step     uint64 // global steps executed so far
}

// eventBatch is the per-core prefetch depth: how many events a core pulls
// from its source per NextBatch call. Prefetching is legal because
// min-clock-first scheduling only interleaves cores — it never reorders
// events within a core, and each core's source generates its stream
// independently of the other cores' progress (DESIGN.md §8). 256 events
// (7 KB per core) amortizes the interface call without thrashing L1d.
const eventBatch = 256

type coreState struct {
	clock  uint64
	instr  uint64
	latSum uint64
	latN   uint64
	l1     *cache.Cache
	src    trace.Batcher

	// out, when set (UseL1Outcomes), supplies the core's L1 outcomes in
	// place of l1, which then stays untouched: ev is the index of the
	// core's next event in it and vic of its next dirty victim.
	out *l1Stream
	ev  int
	vic int

	// buf is the reusable prefetch slab: buf[pos:n] holds events pulled
	// from src but not yet executed. Unconsumed events survive the
	// warmup/measurement boundary — only execution order matters, and that
	// is unchanged.
	buf []trace.Event
	pos int
	n   int

	// Measurement checkpoint (set when warmup ends); ev0 is an
	// outcome-driven core's first measured event.
	clock0, instr0 uint64
	ev0            int
}

// nextEvent returns the core's next event, refilling the prefetch slab
// when it empties. Refills never request more than budget events — the
// core's countdown in the current replay phase, at most its remaining
// demand — so a finite source sized exactly to the run is never
// over-pulled, the same contract the pre-batching per-event machine
// honored. The pointer aims into the slab and is valid until the next
// call — the hot loop reads a couple of fields and moves on, so no copy is
// needed.
func (c *coreState) nextEvent(budget int) *trace.Event {
	if c.pos >= c.n {
		want := eventBatch
		if budget < want {
			want = budget
		}
		c.n = c.src.NextBatch(c.buf[:want])
		c.pos = 0
		if c.n == 0 {
			panic("sim: event source drained past its recorded length")
		}
	}
	ev := &c.buf[c.pos]
	c.pos++
	return ev
}

// New builds a machine over one event source per core — live synthetic
// streams, recorded-trace replays, or any other trace.Source. The design
// must already be wired to the same stacked/offchip controllers passed here
// (they are shared for stats).
func New(cfg Config, sources []trace.Source, design dramcache.Design, stacked, offchip *dram.Controller) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: need at least one core")
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}
	if cfg.WarmupFrac < 0 || cfg.WarmupFrac >= 1 {
		return nil, fmt.Errorf("sim: WarmupFrac %v outside [0,1)", cfg.WarmupFrac)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, l2: l2, design: design, stacked: stacked, offchip: offchip}
	m.cores = make([]coreState, cfg.Cores)
	m.remaining = make([]int, cfg.Cores)
	m.clamp = make([]int, cfg.Cores)
	m.leaves = 1
	for m.leaves < cfg.Cores {
		m.leaves *= 2
	}
	m.shift = uint(bits.TrailingZeros(uint(m.leaves)))
	m.tree = make([]uint64, 2*m.leaves)
	for i := range m.cores {
		if sources[i] == nil {
			return nil, fmt.Errorf("sim: nil source for core %d", i)
		}
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		m.cores[i] = coreState{
			l1:  l1,
			src: trace.AsBatcher(sources[i]),
			buf: make([]trace.Event, eventBatch),
		}
	}
	return m, nil
}

// Results aggregates one run's measurements.
type Results struct {
	// UIPC is the summed per-core instructions-per-cycle over the
	// measured interval — the paper's throughput metric.
	UIPC float64
	// Instructions and Cycles are measured-interval totals (cycles is the
	// max across cores).
	Instructions uint64
	Cycles       uint64
	// Design is the DRAM cache design's statistics snapshot.
	Design dramcache.Snapshot
	// Stacked and Offchip are the DRAM parts' activity counters.
	Stacked dram.Stats
	Offchip dram.Stats
	// L2 is the shared-cache statistics.
	L2 cache.Stats
	// L1HitRate is averaged across cores.
	L1HitRate float64
	// OffchipGBPerKI is off-chip traffic (read+write) per kilo-instruction
	// in bytes, the bandwidth-efficiency metric.
	OffchipBytesPerKI float64
	// AvgDRAMReadLatency is the mean cycles a demand read spent below the
	// L2 (DRAM cache and/or off-chip memory, including queueing).
	AvgDRAMReadLatency float64
}

// Run replays accessesPerCore events on every core (warmup fraction
// included) and returns measured-interval results. It is the one-shot
// composition of the resumable cursor: BeginRun, RunTo the end, collect.
func (m *Machine) Run(accessesPerCore int) Results {
	if accessesPerCore <= 0 {
		return Results{}
	}
	m.BeginRun(accessesPerCore)
	return m.FinishRun()
}

// BeginRun starts a full run of accessesPerCore events per core, the first
// WarmupFrac of them warmup, without executing anything. Advance it with
// RunTo; finish with FinishRun. The Results are bit-identical to Run's no
// matter how the global step range is chunked (see RunTo).
func (m *Machine) BeginRun(accessesPerCore int) {
	warm := m.cfg.Warmup(accessesPerCore)
	m.BeginPhases(warm, accessesPerCore-warm)
}

// BeginPhases starts a run of warm warmup events then meas measured events
// per core (negative lengths count as zero), otherwise exactly as
// BeginRun: statistics reset when every core has run its warmup.
func (m *Machine) BeginPhases(warm, meas int) {
	warm, meas = max(warm, 0), max(meas, 0)
	m.run = runState{accesses: warm + meas, warm: warm}
	m.rec = nil
}

// Observe arms the boundary recorder for subsequent runs: when the
// measurement phase starts, bounds(meas) gives the per-core boundary
// offsets (see telemetry.NewRecorder) and emit, when non-nil, receives each
// epoch the moment its closing boundary completes. Observe(nil, nil)
// disarms.
func (m *Machine) Observe(bounds func(meas int) []int, emit func(telemetry.Epoch)) {
	m.bounds, m.emit = bounds, emit
	m.rec = nil
}

// Recorder returns the current run's recorder — nil until the measurement
// phase has advanced with the recorder armed.
func (m *Machine) Recorder() *telemetry.Recorder { return m.rec }

// TotalSteps returns the run's total global step count: every core's full
// event budget. RunTo targets are global step offsets in [0, TotalSteps].
func (m *Machine) TotalSteps() uint64 {
	return uint64(m.run.accesses) * uint64(len(m.cores))
}

// WarmSteps returns the global step offset of the warmup/measurement
// boundary. RunTo takes the transition eagerly, so a checkpoint written
// exactly here captures the post-boundary state (statistics reset,
// measurement budgets armed).
func (m *Machine) WarmSteps() uint64 {
	return uint64(m.run.warm) * uint64(len(m.cores))
}

// RunTo advances the run to global step target (clamped to TotalSteps),
// stopping exactly on it. The warmup/measurement transition is taken
// eagerly the moment the warm boundary is reached. Every core folds its
// L1 hits into the step before them, and a fold stops at the target, so
// the state at an intermediate target depends on where earlier calls
// stopped as well as on the step count: the same step count may hold
// more of one core's hits and fewer of another core's events. Every state
// the schedule reaches at a step that touches shared state is still
// independent of chunking: the warmup boundary, every recorder boundary
// and the run's end. So are the Results, and a plain run restored from a
// checkpoint written at any target finishes with the same Results.
func (m *Machine) RunTo(target uint64) {
	if total := m.TotalSteps(); target > total {
		target = total
	}
	warmSteps := m.WarmSteps()
	if m.run.phase == 0 {
		if warmSteps > 0 {
			for i := range m.remaining {
				m.remaining[i] = m.run.warm
			}
			m.run.phase = 1
		} else {
			m.beginMeasurementPhase()
		}
	}
	if m.run.phase == 1 {
		if m.run.step < warmSteps {
			bound := target
			if bound > warmSteps {
				bound = warmSteps
			}
			m.run.step += m.continuePhase(bound - m.run.step)
		}
		if m.run.step == warmSteps {
			m.beginMeasurementPhase()
		}
	}
	if m.run.phase == 2 && m.run.step < target {
		if m.bounds == nil {
			m.run.step += m.continuePhase(target - m.run.step)
		} else {
			m.run.step += m.continueObserved(target - m.run.step)
		}
	}
}

// FinishRun drives the run to completion and returns the measured-interval
// results.
func (m *Machine) FinishRun() Results {
	m.RunTo(m.TotalSteps())
	return m.collect()
}

// beginMeasurementPhase crosses the warmup/measurement boundary: reset
// statistics, keep state warm, arm the measurement-phase event budgets.
func (m *Machine) beginMeasurementPhase() {
	m.resetForMeasurement()
	meas := m.run.accesses - m.run.warm
	for i := range m.remaining {
		m.remaining[i] = meas
	}
	m.run.phase = 2
}

// continuePhase executes up to budget steps of the current phase's
// tournament schedule, drawing the per-core demand from m.remaining, and
// returns the steps executed. With no boundaries to observe, a park is just
// a core exhausting its budget, so the loop re-enters until the budget or
// the live cores run out. Re-entry — like resuming after an earlier call or
// a restored checkpoint — is exact because the tournament tree is rebuilt
// from the persisted remaining/clock state: chunked execution runs every
// step that touches shared state in the order one uninterrupted loop runs
// it.
func (m *Machine) continuePhase(budget uint64) uint64 {
	var steps uint64
	for steps < budget {
		n, parked := m.runUntilPark(budget - steps)
		steps += n
		if parked < 0 {
			break
		}
	}
	return steps
}

// continueObserved is continuePhase for a recorder-armed measurement
// phase: clamp-and-park over the recorder's boundaries. The first entry
// builds the recorder at the measurement boundary; later chunks resume it
// where the last one parked, since its cursors advance only as cores
// cross.
func (m *Machine) continueObserved(budget uint64) uint64 {
	meas := m.run.accesses - m.run.warm
	if m.rec == nil {
		m.rec = telemetry.NewRecorder(m.bounds(meas), len(m.cores), m.emit)
	}
	return m.clampAndPark(budget, meas)
}

// clampAndPark runs up to budget steps of the measurement phase while
// observing the recorder's boundaries with no per-step check: it lowers
// every live core's countdown to the core's next boundary, withholding the
// excess in m.clamp, and runs the park loop. A core whose clamped
// countdown reaches zero stands exactly on its boundary, and the loop
// stops right after that step, so no other core runs ahead of the parked
// core's post-boundary events. Parks are exact: a fold never takes a
// core's last countdown event, so the parked core stands on its boundary
// after a real step, with every step that touches shared state run in
// the uninterrupted schedule's order (see RunTo). The
// driver restores the withheld budgets, records the crossing, and
// re-enters. When a crossing completes a boundary — every core has
// crossed it — the machine-wide statistics row is recorded: the state is
// then exactly the state after the completing step, independent of
// chunking. total is the phase's per-core budget, so core c has consumed
// total-remaining[c] events. Returns the steps executed.
func (m *Machine) clampAndPark(budget uint64, total int) uint64 {
	remaining, clamp, rec := m.remaining, m.clamp, m.rec
	var steps uint64
	for steps < budget {
		// A core past its last boundary never clamps and simply exhausts;
		// exhaustion parks too, so a boundary at total is crossed like any
		// other.
		for c, rem := range remaining {
			if rem <= 0 {
				continue
			}
			if k := rec.Next(c) - (total - rem); k < rem {
				clamp[c] = rem - k
				remaining[c] = k
			}
		}
		n, parked := m.runUntilPark(budget - steps)
		steps += n
		for c := range remaining {
			remaining[c] += clamp[c]
			clamp[c] = 0
		}
		if parked < 0 {
			break // budget exhausted or no live cores
		}
		pc := &m.cores[parked]
		if b, complete := rec.Cross(parked, total-remaining[parked], pc.instr-pc.instr0, pc.clock-pc.clock0); complete {
			rec.Global(b, telemetry.GlobalRow{
				Design:  m.design.Snapshot(),
				Stacked: m.stacked.Stats(),
				Offchip: m.offchip.Stats(),
				L2:      m.l2.Stats(),
			})
		}
	}
	return steps
}

// runUntilPark is the replay loop, the one place events execute: it steps
// the live core with the smallest clock, ties broken toward the lowest
// index, until budget steps have run or some core's countdown reaches zero
// ("parks"). It returns the steps executed and the parked core's index, or
// -1 when the budget or the live cores ran out first. The park exit is the
// existing exhausted-core branch, so the hot path carries no extra checks.
// After a step that leaves its core live, the core folds the L1 hits that
// follow it, each counted as a step; the fold stops short of the core's
// last countdown event, which may be clamped at a recorder boundary, and
// of the budget, so parks and RunTo targets stay exact. A step that parks
// its core returns before any fold.
func (m *Machine) runUntilPark(budget uint64) (uint64, int) {
	if m.buildTree() == 0 {
		return 0, -1
	}
	remaining := m.remaining
	tree, leaves, shift, mask := m.tree, m.leaves, m.shift, uint64(m.leaves-1)
	var steps uint64
	for steps < budget {
		best := int(tree[1] & mask)
		m.step(best, remaining[best])
		steps++
		if remaining[best]--; remaining[best] == 0 {
			return steps, best // the next entry rebuilds the tree
		}
		c := &m.cores[best]
		limit := int(min(uint64(remaining[best]-1), budget-steps))
		var folded int
		if c.out != nil {
			folded = c.foldOutcomes(limit)
		} else {
			folded = c.foldL1(limit)
		}
		remaining[best] -= folded
		steps += uint64(folded)
		tree[leaves+best] = c.clock<<shift | uint64(best)
		// Replay best's matches up the tree.
		for n := (leaves + best) >> 1; n >= 1; n >>= 1 {
			tree[n] = minKey(tree[2*n], tree[2*n+1])
		}
	}
	return steps, -1
}

// foldOutcomes folds an outcome-driven core's L1 hits that follow its
// last step, reading each event's hit bit from the core's stream: it
// consumes at most limit of them, never past the prefetch slab, and
// returns how many it consumed. It never refills the slab, so every
// refill stays in nextEvent, bounded by the core's budget. A hit touches
// nothing shared, so running it now rather than at its turn in the
// schedule changes no other core's view; it only advances the core's
// clock by its gap and its instructions by the gap plus one. The core's
// clock is then the key the schedule gives its next unfolded event.
func (c *coreState) foldOutcomes(limit int) int {
	hit, k := c.out.hit, c.ev
	n := 0
	for n < limit && c.pos < c.n && hit[k>>6]&(1<<(k&63)) != 0 {
		gap := uint64(c.buf[c.pos].Gap)
		c.clock += gap
		c.instr += gap + 1
		c.pos++
		k++
		n++
	}
	c.ev = k
	return n
}

// foldL1 is foldOutcomes for a core that simulates its L1: it probes the
// L1 with cache.AccessHit, which applies the access only if it hits, so
// the L1 never runs ahead of the events the core has consumed and the
// event that stops the fold is left untouched for its own step.
func (c *coreState) foldL1(limit int) int {
	n := 0
	for n < limit && c.pos < c.n {
		ev := &c.buf[c.pos]
		if !c.l1.AccessHit(ev.Addr.Block(), ev.Write) {
			break
		}
		gap := uint64(ev.Gap)
		c.clock += gap
		c.instr += gap + 1
		c.pos++
		n++
	}
	return n
}

// buildTree (re)builds the tournament tree from the live cores' clocks and
// per-core remaining budgets, returning the live-core count. The tree is a
// pure function of that state, so a rebuild resumes the schedule exactly
// where the previous chunk — or a restored checkpoint — left off.
func (m *Machine) buildTree() int {
	tree, leaves, shift := m.tree, m.leaves, m.shift
	live := 0
	for i := 0; i < leaves; i++ {
		if i < len(m.cores) && m.remaining[i] > 0 {
			tree[leaves+i] = m.cores[i].clock<<shift | uint64(i)
			live++
		} else {
			tree[leaves+i] = ^uint64(0)
		}
	}
	for n := leaves - 1; n >= 1; n-- {
		tree[n] = minKey(tree[2*n], tree[2*n+1])
	}
	return live
}

// minKey plays one tournament match on packed clock<<shift|core keys: the
// smaller key wins, which compares clocks first and breaks ties toward the
// lower core index — the lowest-index-wins rule of the linear scan.
func minKey(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// step executes one trace event on core i; budget is the core's remaining
// event demand in this replay phase (bounding how far ahead the prefetch
// may pull).
func (m *Machine) step(i, budget int) {
	c := &m.cores[i]
	ev := c.nextEvent(budget)
	c.clock += uint64(ev.Gap)
	c.instr += uint64(ev.Gap) + 1

	block := ev.Addr.Block()
	if o := c.out; o != nil {
		k := c.ev
		c.ev++
		bit := uint64(1) << (k & 63)
		if o.hit[k>>6]&bit != 0 {
			return // L1 hits are pipelined away.
		}
		if o.wb[k>>6]&bit != 0 {
			m.l2Write(o.victims[c.vic], c.clock, i)
			c.vic++
		}
	} else if r := c.l1.Access(block, ev.Write); r.Hit {
		return // L1 hits are pipelined away.
	} else if r.Writeback {
		m.l2Write(r.WritebackBlock, c.clock, i)
	}

	// L1 miss: look up the shared L2.
	at := c.clock + c.l1.Latency()
	l2r := m.l2.Access(block, false)
	var doneAt uint64
	if l2r.Hit {
		doneAt = at + m.l2.Latency()
	} else {
		if l2r.Writeback {
			m.designWrite(l2r.WritebackBlock, at+m.l2.Latency(), i)
		}
		resp := m.design.Access(dramcache.Request{
			Addr: ev.Addr,
			PC:   ev.PC,
			Core: i,
			At:   at + m.l2.Latency(),
		})
		doneAt = resp.DoneAt
		if !ev.Write && doneAt > at+m.l2.Latency() {
			c.latSum += doneAt - (at + m.l2.Latency())
			c.latN++
		}
	}

	if ev.Write {
		return // Stores retire through the write buffer.
	}
	if lat := doneAt - c.clock; lat > m.cfg.HideCycles {
		c.clock += lat - m.cfg.HideCycles
	}
}

// l2Write absorbs an L1 dirty victim into the L2, forwarding any L2 victim
// to the DRAM cache.
func (m *Machine) l2Write(block uint64, at uint64, core int) {
	r := m.l2.Access(block, true)
	if r.Writeback {
		m.designWrite(r.WritebackBlock, at+m.l2.Latency(), core)
	}
}

// designWrite sends an L2 dirty victim to the DRAM cache design.
func (m *Machine) designWrite(block uint64, at uint64, core int) {
	m.design.Access(dramcache.Request{
		Addr:  mem.BlockAddr(block),
		Core:  core,
		Write: true,
		At:    at,
	})
}

// resetForMeasurement marks the warmup/measurement boundary: statistics
// reset everywhere, state (cache content, predictor training, row buffers,
// core clocks) stays warm.
func (m *Machine) resetForMeasurement() {
	m.design.ResetStats()
	m.stacked.ResetStats()
	m.offchip.ResetStats()
	m.l2.ResetStats()
	for i := range m.cores {
		c := &m.cores[i]
		c.l1.ResetStats()
		c.clock0 = c.clock
		c.instr0 = c.instr
		c.ev0 = c.ev
		c.latSum, c.latN = 0, 0
	}
}

// l1HitRate returns the core's L1 hit ratio since the measurement boundary
// (since construction before it). An outcome-driven core counts its hits
// in its stream, since its L1 never sees an access.
func (c *coreState) l1HitRate() float64 {
	if c.out == nil {
		return c.l1.Stats().HitRatio()
	}
	return cache.Stats{
		Accesses: uint64(c.ev - c.ev0),
		Hits:     uint64(countBits(c.out.hit, c.ev0, c.ev)),
	}.HitRatio()
}

// collect assembles the measured-interval results.
func (m *Machine) collect() Results {
	var res Results
	var l1Hit float64
	var maxCycles uint64
	for i := range m.cores {
		c := &m.cores[i]
		instr := c.instr - c.instr0
		cycles := c.clock - c.clock0
		res.Instructions += instr
		if cycles > maxCycles {
			maxCycles = cycles
		}
		if cycles > 0 {
			res.UIPC += float64(instr) / float64(cycles)
		}
		l1Hit += c.l1HitRate()
	}
	var latSum, latN uint64
	for i := range m.cores {
		latSum += m.cores[i].latSum
		latN += m.cores[i].latN
	}
	if latN > 0 {
		res.AvgDRAMReadLatency = float64(latSum) / float64(latN)
	}
	res.Cycles = maxCycles
	res.L1HitRate = l1Hit / float64(len(m.cores))
	res.Design = m.design.Snapshot()
	res.Stacked = m.stacked.Stats()
	res.Offchip = m.offchip.Stats()
	res.L2 = m.l2.Stats()
	if res.Instructions > 0 {
		total := res.Design.OffchipReadBytes + res.Design.OffchipWriteBytes
		res.OffchipBytesPerKI = float64(total) * 1000 / float64(res.Instructions)
	}
	return res
}
