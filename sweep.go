package unisoncache

import (
	"fmt"
	"io"
	"math"

	"unisoncache/internal/runner"
	"unisoncache/internal/stats"
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
	// configuration at most once per worker-pool pass.
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
	// CI is the matched-pair confidence interval on the speedup, present
	// only when both runs sampled: measurement window i covers the same
	// per-core events in both runs (the schedule is defined in events and
	// the streams are identical), so per-window design/baseline ratios
	// cancel the workload-phase variance the two runs share.
	CI *SpeedupCI `json:",omitempty"`
}

// SpeedupCI is a matched-pair speedup confidence interval.
type SpeedupCI struct {
	// Confidence is the two-sided level (the design spec's).
	Confidence float64
	// Speedup is the matched-pair estimate — the mean of the per-window
	// ratios. It differs from SpeedupResult.Speedup (ratio of the two
	// windowed means) by at most the window-to-window spread; HalfWidth
	// is stated around this center.
	Speedup   float64
	HalfWidth float64
	// Pairs is the number of matched windows (the shorter run's count
	// when early stopping ended the two runs at different points).
	Pairs int
}

// Low and High are the interval bounds.
func (c SpeedupCI) Low() float64  { return c.Speedup - c.HalfWidth }
func (c SpeedupCI) High() float64 { return c.Speedup + c.HalfWidth }

// RelHalfWidth is HalfWidth relative to the estimate (the ±x% form),
// mirroring SampleStats.RelHalfWidth: a zero interval is relatively zero
// regardless of the center, a nonzero interval around a zero (or sign-
// degenerate) center is +Inf — never a value a CI target could mistake
// for converged — and a negative center measures against its magnitude.
func (c SpeedupCI) RelHalfWidth() float64 {
	if c.HalfWidth == 0 {
		return 0
	}
	if c.Speedup == 0 {
		return math.Inf(1)
	}
	return c.HalfWidth / math.Abs(c.Speedup)
}

// speedupCI pairs the two runs' measurement windows; nil unless both
// sampled. Early stopping may have ended the runs at different window
// counts; the common prefix still covers identical event ranges, so the
// pairing stands.
func speedupCI(design, baseline Result) *SpeedupCI {
	if design.CI == nil || baseline.CI == nil {
		return nil
	}
	d, b := design.CI.summedRatios(), baseline.CI.summedRatios()
	k := d.N()
	if b.N() < k {
		k = b.N()
	}
	conf := design.CI.Confidence
	speedup, hw := stats.PairedSpeedupCI(d, b, conf)
	return &SpeedupCI{
		Confidence: conf,
		Speedup:    speedup,
		HalfWidth:  hw,
		Pairs:      k,
	}
}

// SpeedupMany is Speedup over a whole plan: every design point and every
// distinct no-DRAM-cache baseline fan out over one worker pool. The
// DesignNone baseline executes once per unique (workload, seed, capacity,
// accesses, cores, scale) tuple — not once per design point — because
// design-only knobs (associativity, ablation flags) cannot affect a
// system with no DRAM cache. Points whose Sampling is enabled come back
// with matched-pair speedup CIs; use SweepSampled for plans that should
// also escalate unconverged points.
func SpeedupMany(p Plan) ([]SpeedupResult, error) {
	return speedupMany(p, func(runs []Run) ([]Result, error) {
		return runner.MapKeyed(runs, runKey, p.exec(), runner.Options{Jobs: p.Jobs, Progress: p.Progress})
	})
}

// speedupMany builds the design+baseline run list, hands it to execute
// (one worker-pool pass, however adaptive) and assembles the per-point
// speedups.
func speedupMany(p Plan, execute func([]Run) ([]Result, error)) ([]SpeedupResult, error) {
	n := len(p.Points)
	runs := make([]Run, 0, 2*n)
	for _, r := range p.Points {
		runs = append(runs, r.withDefaults())
	}
	for i := 0; i < n; i++ {
		runs = append(runs, baselineRun(runs[i]))
	}
	results, err := execute(runs)
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
			CI:       speedupCI(design, baseline),
		}
	}
	return out, nil
}

// sampledRounds caps a CI-target plan's refinement: an unsatisfied
// point's window density doubles at most this many times (the default
// 25% detailed duty cycle reaches full tiling in two halvings).
const sampledRounds = 2

// SweepSampled executes a CI-target plan: spec (the defaults when zero)
// is applied to every point, SpeedupMany runs the sampled sweep, and any
// point whose matched-pair speedup CI is still wider than the spec's
// TargetRelCI re-runs with its windows twice as dense — the inter-window
// gap halved (down to none), the event budget and warmup untouched —
// while points already inside the target keep their first-round results.
// The target applies to the *speedup* CI here, not the per-run UIPC CI
// the early-stop rule inside each run watches: pairing cancels the
// workload-phase variance the two runs share, so the speedup converges
// at densities where a single run's throughput CI is still wide.
//
// Refining density rather than budget keeps every attempt measuring the
// same region a full run would — a longer run would measure a warmer
// cache and bound a *different* value than the full-run result the CI is
// meant to contain. A point still unsatisfied at full tiling has used
// every event its budget holds; its (honest, wider) CI stands. Results
// remain in plan order and, like every sweep, bit-identical no matter
// the worker count.
func SweepSampled(p Plan, spec SampleSpec) ([]SpeedupResult, error) {
	if !spec.Enabled() {
		spec = DefaultSampleSpec()
	}
	spec = spec.WithDefaults()
	pts := make([]Run, len(p.Points))
	for i, r := range p.Points {
		r.Sampling = spec
		pts[i] = r
	}
	target := spec.TargetRelCI
	if target < 0 {
		target = 0
	}
	run := func(points []Run) ([]SpeedupResult, error) {
		return SpeedupMany(Plan{Points: points, Jobs: p.Jobs, Progress: p.Progress, Executor: p.Executor})
	}
	grow := func(r Run, res SpeedupResult) (Run, bool) {
		if target <= 0 || res.CI == nil {
			return r, false
		}
		rel := res.CI.RelHalfWidth()
		if rel <= target {
			return r, false
		}
		d := r.Sampling.WithDefaults()
		if d.GapEvents <= 0 {
			return r, false // already tiled: no denser schedule exists
		}
		// The CI shrinks like 1/sqrt(windows), so jump straight to the
		// predicted density instead of probing halvings: stride divided
		// by (rel/target)^2, clamped to full tiling.
		stride := d.IntervalEvents + d.GapEvents
		factor := (rel / target) * (rel / target)
		if next := int(float64(stride) / factor); next > d.IntervalEvents {
			r.Sampling.GapEvents = next - d.IntervalEvents
		} else {
			r.Sampling.GapEvents = -1
		}
		return r, true
	}
	return runner.Refine(pts, run, grow, sampledRounds)
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
