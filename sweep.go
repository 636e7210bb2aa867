package unisoncache

import (
	"fmt"
	"io"

	"unisoncache/internal/runner"
)

// Plan is a declarative sweep: an ordered list of simulation points plus
// the execution policy. Results always come back in Points order, and —
// because every Run is a pure function of its configuration and seed —
// they are bit-identical to calling Execute serially over the same list,
// no matter the worker count.
//
// Points and Jobs form the wire-serializable part of a Plan (stable JSON
// field names); Progress and Executor are process-local policy.
type Plan struct {
	// Points are the runs to execute, in result order. Build the list by
	// hand or expand a Sweep's cross product.
	Points []Run `json:"Points"`
	// Jobs is the worker-pool size. Zero or negative runs one worker per
	// schedulable CPU (runtime.GOMAXPROCS).
	Jobs int `json:"Jobs"`
	// Progress, when non-nil, receives a live completion ticker (pass
	// os.Stderr; one carriage-return-prefixed line per finished job).
	Progress io.Writer `json:"-"`
	// Executor, when non-nil, replaces Execute as the function every
	// defaulted point runs through — the hook the simulation service uses
	// to interpose its content-addressed result cache (and tests use to
	// fake execution). The contract is strict: Executor(r) must return
	// exactly what Execute(r) would — a cached copy is fine, a different
	// value is not — or sweep results lose their bit-identical guarantee.
	// Executors must be safe for concurrent calls; in-plan memoization
	// still applies, so an Executor sees each distinct defaulted
	// configuration at most once per plan.
	Executor func(Run) (Result, error) `json:"-"`
}

// exec resolves the plan's point-execution function.
func (p Plan) exec() func(Run) (Result, error) {
	if p.Executor != nil {
		return p.Executor
	}
	return Execute
}

// Sweep declares a cross product of simulation points over a template
// Run. Empty dimensions fall back to the template's value, so a Sweep
// only names the axes it actually varies.
type Sweep struct {
	// Base is the template every point starts from.
	Base Run
	// Workloads, Designs, Capacities, Seeds and UnisonWays are the swept
	// axes; an empty axis keeps Base's value.
	Workloads  []string
	Designs    []DesignKind
	Capacities []uint64
	Seeds      []uint64
	UnisonWays []int
}

// Points expands the cross product in stable order — workload-major, then
// capacity, seed, ways, design innermost — matching how the paper's
// figures group their bars.
func (s Sweep) Points() []Run {
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{s.Base.Workload}
	}
	capacities := s.Capacities
	if len(capacities) == 0 {
		capacities = []uint64{s.Base.Capacity}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{s.Base.Seed}
	}
	ways := s.UnisonWays
	if len(ways) == 0 {
		ways = []int{s.Base.UnisonWays}
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = []DesignKind{s.Base.Design}
	}
	points := make([]Run, 0, len(workloads)*len(capacities)*len(seeds)*len(ways)*len(designs))
	for _, w := range workloads {
		for _, c := range capacities {
			for _, seed := range seeds {
				for _, wy := range ways {
					for _, d := range designs {
						r := s.Base
						r.Workload, r.Capacity, r.Seed, r.UnisonWays, r.Design = w, c, seed, wy, d
						points = append(points, r)
					}
				}
			}
		}
	}
	return points
}

// ExecuteMany runs every point of the plan over a worker pool and returns
// the results in plan order. Points whose defaulted configurations are
// identical execute once and share a Result.
func ExecuteMany(p Plan) ([]Result, error) {
	runs := make([]Run, len(p.Points))
	for i, r := range p.Points {
		runs[i] = r.withDefaults()
	}
	return runner.MapKeyed(runs, runKey, p.exec(), runner.Options{Jobs: p.Jobs, Progress: p.Progress})
}

// SpeedupResult is one plan point's Speedup outcome.
type SpeedupResult struct {
	// Speedup is design UIPC over baseline UIPC — the Figure 7/8 metric.
	// For sampled runs both UIPCs are the windowed estimates.
	Speedup float64
	// Design and Baseline are the two underlying results. Baseline may be
	// shared (memoized) across points.
	Design   Result
	Baseline Result
}

// SpeedupMany is Speedup over a whole plan: every design point and every
// distinct no-DRAM-cache baseline fan out over one worker pool. The
// DesignNone baseline executes once per unique (workload, seed, capacity,
// accesses, cores, scale) tuple — not once per design point — because
// design-only knobs (associativity, ablation flags) cannot affect a
// system with no DRAM cache.
func SpeedupMany(p Plan) ([]SpeedupResult, error) {
	n := len(p.Points)
	runs := make([]Run, 0, 2*n)
	for _, r := range p.Points {
		runs = append(runs, r.withDefaults())
	}
	for i := 0; i < n; i++ {
		runs = append(runs, baselineRun(runs[i]))
	}
	results, err := runner.MapKeyed(runs, runKey, p.exec(), runner.Options{Jobs: p.Jobs, Progress: p.Progress})
	if err != nil {
		return nil, err
	}
	out := make([]SpeedupResult, n)
	for i := range out {
		design, baseline := results[i], results[n+i]
		if baseline.UIPC == 0 {
			return nil, fmt.Errorf("unisoncache: baseline UIPC is zero")
		}
		out[i] = SpeedupResult{
			Speedup:  design.UIPC / baseline.UIPC,
			Design:   design,
			Baseline: baseline,
		}
	}
	return out, nil
}

// runKey memoizes by the full defaulted configuration: Run is a
// comparable struct, so the struct value itself is the key.
func runKey(r Run) Run { return r }

// baselineRun normalizes a defaulted run into its no-DRAM-cache baseline.
// Design-specific knobs are reset to their defaults so every design point
// over the same workload tuple collapses onto one baseline key. Telemetry
// is stripped too: a speedup's baseline only contributes its UIPC, so
// observing the design point must not fork the baseline key (or record a
// timeline nobody reads).
func baselineRun(r Run) Run {
	r.Design = DesignNone
	r.UnisonWays = 4
	r.FCWays = 32
	r.DisableWayPrediction = false
	r.SerializeTagData = false
	r.DisableSingleton = false
	r.Telemetry = TelemetrySpec{}
	return r
}
