// Package unisoncache is a from-scratch reproduction of "Unison Cache: A
// Scalable and Effective Die-Stacked DRAM Cache" (Jevdjic, Loh, Kaynak,
// Falsafi — MICRO 2014) as a standalone Go simulation library.
//
// It bundles a command-level DRAM timing model, an SRAM cache hierarchy, a
// synthetic server-workload generator, and four die-stacked DRAM cache
// designs — Unison Cache (the paper's contribution), Alloy Cache, Footprint
// Cache and an ideal latency-optimized cache — behind one entry point:
// configure a Run, call Execute, read the Result.
//
//	res, err := unisoncache.Execute(unisoncache.Run{
//	    Workload: "web-search",
//	    Design:   unisoncache.DesignUnison,
//	    Capacity: 1 << 30,
//	})
//
// Whole evaluations run through the sweep engine: declare a Plan (or
// expand a Sweep's cross product) and call ExecuteMany or SpeedupMany to
// fan the points out over a worker pool with shared baselines memoized.
//
// Everything is deterministic for a fixed Seed — concurrent plans return
// results bit-identical to a serial loop. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
package unisoncache

import (
	"fmt"
	"slices"

	"unisoncache/internal/config"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

// DesignKind selects the DRAM cache organization under test.
type DesignKind string

// The evaluated designs (§IV-C plus the two Figure 7 references).
const (
	// DesignUnison is the paper's contribution: 960 B pages, 4-way,
	// in-DRAM tags, way + footprint prediction.
	DesignUnison DesignKind = "unison"
	// DesignUnison1984 is the 1984 B-page design point of Table V.
	DesignUnison1984 DesignKind = "unison-1984"
	// DesignAlloy is the state-of-the-art block-based baseline [24].
	DesignAlloy DesignKind = "alloy"
	// DesignFootprint is the state-of-the-art page-based baseline [10].
	DesignFootprint DesignKind = "footprint"
	// DesignLohHill is the earlier block-based design of Loh & Hill [20]:
	// row-as-set tags in DRAM with serialized tag-then-data lookups and a
	// MissMap (discussed in §II-A as Alloy Cache's predecessor).
	DesignLohHill DesignKind = "lohhill"
	// DesignIdeal never misses and has no tag overhead (die-stacked main
	// memory).
	DesignIdeal DesignKind = "ideal"
	// DesignNone is the no-DRAM-cache baseline every speedup is relative
	// to.
	DesignNone DesignKind = "none"
)

// designs is the design list Designs copies and knownDesign searches.
var designs = []DesignKind{DesignUnison, DesignUnison1984, DesignAlloy, DesignFootprint, DesignLohHill, DesignIdeal, DesignNone}

// Designs lists all selectable designs.
func Designs() []DesignKind { return slices.Clone(designs) }

// Run configures one simulation.
//
// Run is part of the service wire format: the JSON field names below are
// stable, decoding is strict (see UnmarshalJSON) and reads what Marshal
// writes in one pass without reflection, and a fully-defaulted Run
// canonically hashes to its content-addressed cache key via RunKey.
type Run struct {
	// Workload is one of Workloads() — a built-in name or one added with
	// RegisterWorkload. When replaying a trace (TracePath set) it may be
	// left empty to take the capture's workload name.
	Workload string `json:"Workload"`
	// Design is the DRAM cache organization under test.
	Design DesignKind `json:"Design"`
	// Capacity is the stacked-DRAM cache capacity in bytes.
	Capacity uint64 `json:"Capacity"`
	// AccessesPerCore is the trace length per core, warmup included
	// (default 400k; the first WarmupFrac is discarded).
	AccessesPerCore int `json:"AccessesPerCore"`
	// Seed makes runs reproducible (default 1).
	Seed uint64 `json:"Seed"`
	// Cores overrides the 16-core default (at most 4096, the most a
	// capture can hold).
	Cores int `json:"Cores"`
	// ScaleDivisor applies the proportional-scaling methodology: the
	// simulated cache capacity and the workload working set are both
	// divided by this factor, preserving every capacity-to-working-set
	// ratio while making multi-gigabyte configurations tractable without
	// the paper's 30-billion-instruction traces. The default (0) picks
	// the divisor automatically so the simulated cache is at most 32 MB —
	// small enough to fill, evict and reach predictor steady state within
	// a few hundred thousand accesses per core. Latency-relevant
	// parameters — the Footprint Cache tag-array latency (Table IV) and
	// the way-predictor sizing — remain keyed to the *labeled* Capacity,
	// because the real hardware structures scale with it. Set to 1 for
	// full-scale simulation (needs very long traces), or -1 for the
	// automatic choice spelled explicitly.
	ScaleDivisor int `json:"ScaleDivisor"`

	// TracePath, when non-empty, replays a .utrace capture (written by
	// RecordTrace or tracegen -record) instead of generating the synthetic
	// stream live. Zero-valued Workload, Seed, Cores and AccessesPerCore
	// take the capture header's values; explicitly set ones must match the
	// header, except AccessesPerCore, which may replay a prefix of the
	// capture. The effective ScaleDivisor must equal the capture's (the
	// frozen events embed the capture-time scaled working set), so keep
	// Capacity/ScaleDivisor as recorded; design knobs (Design, ways,
	// ablations) apply freely, so one capture serves a whole design sweep.
	TracePath string `json:"TracePath"`

	// Sampling, when non-zero, switches the run to SMARTS-style sampled
	// simulation: functional warmup, then every short detailed
	// measurement window the budget fits, with a confidence interval over
	// their UIPC samples (Result.CI) tested against the spec's CI target.
	// The zero value simulates every event, exactly as before. Replay
	// runs sample fine — the schedule only ever replays a prefix of the
	// capture.
	Sampling SampleSpec `json:"Sampling,omitzero"`

	// Segments, when >= 2, executes the run time-parallel: the replay is
	// split into that many segments, simulated concurrently from
	// checkpointed start states and merged with a deterministic fix-up
	// pass (DESIGN.md §11). Results are bit-identical to the serial run —
	// the first execution of a configuration simulates serially while
	// writing the segment checkpoints, and repeat executions (result-cache
	// misses on design variants) run all segments concurrently. 0 and 1 both mean serial. Sampled and
	// telemetry runs (Sampling or Telemetry set) ignore Segments: they
	// replay serially and return the same Result they would with
	// Segments 0.
	Segments int `json:"Segments"`

	// Telemetry, when non-zero, records an epoch-sliced counter timeline
	// over the measured region (Result.Timeline): per-core and per-design
	// statistic deltas every EpochEvents retired events per core.
	// Recording is barrier-free, so the measured Results are bit-identical
	// with telemetry on or off. Mutually exclusive with Sampling.
	Telemetry TelemetrySpec `json:"Telemetry,omitzero"`

	// UnisonWays overrides Unison Cache's 4-way associativity (Figure 5
	// sweeps 1/4/32).
	UnisonWays int `json:"UnisonWays"`
	// Ablations (Unison only).
	DisableWayPrediction bool `json:"DisableWayPrediction"`
	SerializeTagData     bool `json:"SerializeTagData"`
	DisableSingleton     bool `json:"DisableSingleton"`

	// FCWays overrides Footprint Cache's 32-way associativity.
	FCWays int `json:"FCWays"`
}

// withDefaults fills zero fields. Trace replays leave the stream-shaped
// fields (workload, seed, cores, accesses) zero so Execute can fill them
// from the capture's header instead.
func (r Run) withDefaults() Run {
	if r.TracePath == "" {
		if r.AccessesPerCore == 0 {
			r.AccessesPerCore = 400_000
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
		if r.Cores == 0 {
			r.Cores = 16
		}
	}
	if r.UnisonWays == 0 {
		r.UnisonWays = 4
	}
	if r.FCWays == 0 {
		r.FCWays = 32
	}
	if r.ScaleDivisor == 0 || r.ScaleDivisor == -1 {
		r.ScaleDivisor = AutoScaleDivisor(r.Capacity)
	}
	if r.Sampling.Enabled() {
		r.Sampling = r.Sampling.WithDefaults()
	}
	if r.Telemetry.Enabled() {
		r.Telemetry = r.Telemetry.WithDefaults()
	}
	return r
}

// AutoScaleDivisor returns the proportional-scaling divisor a Run with
// this labeled capacity gets by default (ScaleDivisor 0 or -1): the
// divisor that maps the capacity to at most a 32 MB simulated cache, with
// a floor of 16 so even the smallest design point stays proportionally
// scaled. The 32 MB cap is what lets a run cycle the cache's full
// capacity several times within a few hundred thousand accesses per core
// — the predictor-training steady state the paper reaches with
// 30-billion-instruction traces. Exported so code that assembles a
// machine by hand can reproduce the exact cell a defaulted Run simulates.
func AutoScaleDivisor(capacity uint64) int {
	d := 16
	for capacity/uint64(d) > 32<<20 {
		d *= 2
	}
	return d
}

// Result is one simulation's measured output.
//
// Result is part of the service wire format: encoding/json writes it
// with its Go field names, and UnmarshalJSON reads that form in one pass
// without reflection, handing anything else to encoding/json, so a
// decoded Result is always the one encoding/json would decode.
type Result struct {
	sim.Results
	// Run echoes the (defaulted) configuration.
	Run Run
	// CI carries the confidence-interval statistics of a sampled run
	// (Run.Sampling non-zero) and is nil for full runs. When set, UIPC
	// is the sampled estimate over the measurement windows; all other
	// fields cover the whole measured region, gaps included.
	CI *SampleStats `json:",omitempty"`
	// Timeline carries the epoch-sliced counter timeline of a run with
	// telemetry enabled (Run.Telemetry non-zero) and is nil otherwise.
	// Every other Result field is bit-identical with telemetry on or off.
	Timeline *Timeline `json:",omitempty"`
}

// MissRatioPct is the DRAM cache demand-read miss ratio in percent.
func (r Result) MissRatioPct() float64 { return r.Design.MissRatioPct() }

// Execute runs one simulation to completion. The event streams come from
// the workload's synthetic generator, or — when Run.TracePath is set — from
// a .utrace capture, which reproduces the recorded run bit-identically.
// With Run.Segments >= 2 a plain replay executes time-parallel (see
// Segments); the Results are bit-identical either way.
func Execute(r Run) (Result, error) {
	return execute(r, nil)
}

// maxSimulatedCapacity bounds the simulated capacity, Capacity /
// ScaleDivisor: 8 GB, the paper's largest design point
// (config.TPCHSizes), which ScaleDivisor 1 still reaches. The designs
// size their tag and page arrays by it, so an unbounded request could
// ask for an allocation the OS refuses, which ends the process.
const maxSimulatedCapacity = 8 << 30

// execute is Execute's dispatch with an optional live epoch observer
// (ExecuteObserved).
func execute(r Run, onEpoch func(TimelineEpoch)) (Result, error) {
	r = r.withDefaults()
	if r.ScaleDivisor < 1 {
		return Result{}, fmt.Errorf("unisoncache: ScaleDivisor must be >= 1, got %d", r.ScaleDivisor)
	}
	if r.Capacity/uint64(r.ScaleDivisor) > maxSimulatedCapacity {
		return Result{}, fmt.Errorf("unisoncache: Capacity/ScaleDivisor must be <= 8 GB, got %d/%d", r.Capacity, r.ScaleDivisor)
	}
	if r.AccessesPerCore < 0 {
		return Result{}, fmt.Errorf("unisoncache: AccessesPerCore must be >= 0, got %d", r.AccessesPerCore)
	}
	// The bound a capture header allows: a request cannot make the
	// machine allocate per-core caches and streams beyond what a replay
	// of the same run could.
	if r.Cores > trace.FileMaxCores {
		return Result{}, fmt.Errorf("unisoncache: Cores must be <= %d, got %d", trace.FileMaxCores, r.Cores)
	}
	if r.Segments < 0 || r.Segments > maxSegments {
		return Result{}, fmt.Errorf("unisoncache: Segments must be in [0, %d], got %d", maxSegments, r.Segments)
	}
	if r.Telemetry.Enabled() {
		if r.Sampling.Enabled() {
			return Result{}, fmt.Errorf("unisoncache: Telemetry and Sampling are mutually exclusive (epoch slicing needs every event simulated)")
		}
		if err := r.Telemetry.Validate(); err != nil {
			return Result{}, fmt.Errorf("unisoncache: %w", err)
		}
	}
	if r.Sampling.Enabled() {
		if err := r.Sampling.Validate(); err != nil {
			return Result{}, err
		}
	} else if r.Segments > 1 && !r.Telemetry.Enabled() {
		return executeSegmented(r)
	}
	machine, r, err := newMachine(r)
	if err != nil {
		return Result{}, err
	}
	if r.Sampling.Enabled() {
		return executeSampled(machine, r)
	}
	if !r.Telemetry.Enabled() {
		return Result{Results: machine.Run(r.AccessesPerCore), Run: r}, nil
	}
	machine.Observe(r.Telemetry.Bounds, onEpoch)
	res := Result{Results: machine.Run(r.AccessesPerCore), Run: r}
	tl, err := timelineFrom(machine.Recorder(), r.Telemetry)
	if err != nil {
		return Result{}, err
	}
	res.Timeline = tl
	return res, nil
}

// maxRecorderBoundaries and maxRecorderRows bound what the boundary
// recorder of a telemetry or sampled run allocates up front: a global row
// per boundary and a row per boundary and core, before the run simulates
// anything. Measured through Execute, with the timeline or windows the
// run returns, a boundary costs ~0.5 KB in a telemetry run and ~1.5 KB in
// a sampled one, and a core row ~32 B and ~150 B. So the bounds admit at
// most ~70 MB of recorder for a telemetry run and ~250 MB for a sampled
// one. The repo's own schedules set a few hundred boundaries at most,
// while one-event epochs over a run of billions of events would ask for
// tens of GB at once, an allocation the OS refuses with a fatal error.
const (
	maxRecorderBoundaries = 1 << 16
	maxRecorderRows       = 1 << 20
)

// checkRecorder rejects a telemetry or sampled run whose recorder would
// exceed maxRecorderBoundaries or maxRecorderRows, naming the spec field
// that sets its boundaries.
func checkRecorder(r Run) error {
	var n int
	var field string
	switch {
	case r.Telemetry.Enabled():
		// Epochs tile the measured region, which starts where
		// Machine.BeginRun ends the warmup.
		warm := sim.Default().Warmup(r.AccessesPerCore)
		n, field = r.Telemetry.Epochs(r.AccessesPerCore-warm), fmt.Sprintf("Telemetry.EpochEvents %d", r.Telemetry.EpochEvents)
	case r.Sampling.Enabled():
		n, field = r.Sampling.Boundaries(r.AccessesPerCore), fmt.Sprintf("Sampling.IntervalEvents %d (GapEvents %d)", r.Sampling.IntervalEvents, r.Sampling.GapEvents)
	}
	if n > maxRecorderBoundaries || n > maxRecorderRows/r.Cores {
		return fmt.Errorf("unisoncache: %s sets %d recorder boundaries over %d accesses per core on %d cores; a run may record at most %d boundaries and %d boundary x core rows",
			field, n, r.AccessesPerCore, r.Cores, maxRecorderBoundaries, maxRecorderRows)
	}
	return nil
}

// newMachine builds the complete simulated system a defaulted Run
// describes — event sources, DRAM controllers, the design under test and
// the core/cache machine — and returns the Run with trace-header
// reconciliation applied. A replay's machine takes its L1 outcomes from
// the capture's streams; a live run's simulates its L1s. Machines for the
// same Run are interchangeable: construction is deterministic, which is
// what lets segment workers build private machines and restore
// checkpoints into them. A run whose recorder would be too large
// (checkRecorder) fails once its length is known, before the DRAM parts
// and the design are built.
func newMachine(r Run) (*sim.Machine, Run, error) {
	r, sources, l1, err := r.sources()
	if err != nil {
		return nil, Run{}, err
	}
	if err := checkRecorder(r); err != nil {
		return nil, Run{}, err
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		return nil, Run{}, err
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		return nil, Run{}, err
	}
	design, err := buildDesign(r, stacked, offchip)
	if err != nil {
		return nil, Run{}, err
	}
	cfg := sim.Default()
	cfg.Cores = r.Cores
	// The proportional-scaling methodology shrinks the L2 with the same
	// divisor (floor 128 KB) so the L2:DRAM-cache capacity ratio — which
	// controls how much re-reference traffic the DRAM cache actually sees
	// — stays faithful to the full-scale system.
	if scaledL2 := cfg.L2.SizeBytes / r.ScaleDivisor; scaledL2 >= 128<<10 {
		cfg.L2.SizeBytes = scaledL2
	} else {
		cfg.L2.SizeBytes = 128 << 10
	}
	machine, err := sim.New(cfg, sources, design, stacked, offchip)
	if err != nil {
		return nil, Run{}, err
	}
	if l1 != nil {
		if err := machine.UseL1Outcomes(l1, r.AccessesPerCore); err != nil {
			return nil, Run{}, err
		}
	}
	return machine, r, nil
}

// buildDesign constructs the requested design over the DRAM parts. The
// simulated structures are sized by the scaled capacity; latency-relevant
// parameters (FC tag latency, way-predictor width) use the labeled one.
func buildDesign(r Run, stacked, offchip *dram.Controller) (dramcache.Design, error) {
	simCap := r.Capacity / uint64(r.ScaleDivisor)
	if simCap < mem.RowBytes {
		simCap = mem.RowBytes
	}
	switch r.Design {
	case DesignUnison, DesignUnison1984:
		pageBlocks := 15
		if r.Design == DesignUnison1984 {
			pageBlocks = 31
		}
		return core.New(core.Config{
			CapacityBytes:        simCap,
			LabelBytes:           r.Capacity,
			PageBlocks:           pageBlocks,
			Ways:                 r.UnisonWays,
			DisableWayPrediction: r.DisableWayPrediction,
			SerializeTagData:     r.SerializeTagData,
			DisableSingleton:     r.DisableSingleton,
		}, stacked, offchip)
	case DesignAlloy:
		return dramcache.NewAlloy(simCap, r.Cores, stacked, offchip)
	case DesignFootprint:
		return dramcache.NewFootprint(dramcache.FCConfig{
			CapacityBytes: simCap,
			Ways:          r.FCWays,
			TagLatency:    config.FCTagLatency(r.Capacity),
		}, stacked, offchip)
	case DesignLohHill:
		return dramcache.NewLohHill(simCap, stacked, offchip)
	case DesignIdeal:
		return dramcache.NewIdeal(stacked), nil
	case DesignNone:
		return dramcache.NewNone(offchip), nil
	default:
		return nil, fmt.Errorf("unisoncache: unknown design %q", r.Design)
	}
}

// Speedup runs the design and the no-cache baseline on identical traces and
// returns design UIPC / baseline UIPC — the Figure 7/8 metric — along with
// both results. The two runs execute concurrently; for whole sweeps use
// SpeedupMany, which also memoizes baselines across points.
func Speedup(r Run) (speedup float64, design, baseline Result, err error) {
	res, err := SpeedupMany(Plan{Points: []Run{r}})
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	return res[0].Speedup, res[0].Design, res[0].Baseline, nil
}
