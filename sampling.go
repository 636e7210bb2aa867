package unisoncache

import (
	"unisoncache/internal/sample"
	"unisoncache/internal/sim"
	"unisoncache/internal/telemetry"
)

// SampleSpec configures SMARTS-style sampled simulation, set on
// Run.Sampling. It is internal/sample.Spec, whose field docs give each
// default. The zero value disables sampling; a non-zero spec schedules the
// run as functional warmup followed by short detailed measurement windows
// separated by functional gaps, measures every window the run's budget
// fits, and estimates UIPC from the per-window samples with a confidence
// interval (Result.CI), whose relative half-width it tests against the
// requested target (SampleStats.Converged).
//
// Zero fields select defaults (warmup 2/3 — the same boundary the full
// pipeline uses, so windows subsample the region a full run measures —
// interval 1000, gap 3x interval, min 4 windows, unlimited max, 95%
// confidence, ±3% target); negative values mean "explicitly none" where
// that is meaningful (WarmupFrac, GapEvents, TargetRelCI), mirroring
// Run.ScaleDivisor's -1 idiom. Use DefaultSampleSpec() to turn sampling
// on with all defaults.
//
// SampleSpec is part of the service wire format; its JSON field names are
// its Go field names and are stable.
type SampleSpec = sample.Spec

// DefaultSampleSpec returns the all-defaults sampling configuration —
// assign it to Run.Sampling to turn sampling on.
func DefaultSampleSpec() SampleSpec { return sample.Default() }

// SampleStats is a sampled run's statistical outcome, carried on
// Result.CI. The run's Result.UIPC is the sampled estimate (the ratio
// estimator over the measurement windows); every other Result field
// covers the whole measured region — first window start to last window
// end, functional gaps included — so ratio statistics use all
// post-warmup events.
type SampleStats struct {
	// Confidence is the two-sided level HalfWidth is stated at.
	Confidence float64
	// UIPC is the sampled estimate (equal to Result.UIPC) and HalfWidth
	// its confidence-interval half-width.
	UIPC      float64
	HalfWidth float64
	// Converged reports whether the relative half-width over all windows
	// is at or below the spec's TargetRelCI.
	Converged bool
	// Windows holds one entry per measurement window, in schedule order;
	// the (Instructions, Cycles) pairs are the estimator's samples.
	Windows []WindowStat
	// DetailedEvents counts events simulated inside measurement windows,
	// across all cores. SimulatedEvents adds the functional warmup and
	// gaps: every core simulates through the last window's end, so it is
	// that offset plus the warmup, times the core count. FullRunEvents is
	// what the run would have simulated with sampling off
	// (AccessesPerCore x Cores). FullRunEvents over DetailedEvents is the
	// sampling reduction; the events between SimulatedEvents and
	// FullRunEvents lie past the last window and are never simulated.
	DetailedEvents  uint64
	SimulatedEvents uint64
	FullRunEvents   uint64
}

// WindowStat is one measurement window's metrics: summed per-core IPC,
// total retired instructions, the maximum per-core cycle delta, and the
// per-core deltas the estimator is built from.
type WindowStat struct {
	UIPC         float64
	Instructions uint64
	Cycles       uint64
	PerCore      []CoreWindowStat
}

// CoreWindowStat is one core's share of a measurement window: retired
// instructions and elapsed cycles. It is internal/telemetry.CoreRow, the
// row the recorder measures windows with; its JSON field names are stable.
type CoreWindowStat = telemetry.CoreRow

// executeSampled runs the sampled schedule on a prepared machine and
// assembles the Result (the sampled counterpart of machine.Run in
// Execute).
func executeSampled(m *sim.Machine, r Run) (Result, error) {
	rep, err := sample.Run(m, r.AccessesPerCore, r.Sampling)
	if err != nil {
		return Result{}, err
	}
	return assembleSampled(rep, r), nil
}

// assembleSampled converts a sampled report into the public Result shape.
func assembleSampled(rep sample.Report, r Run) Result {
	res := Result{Results: rep.Results, Run: r}
	res.UIPC = rep.UIPC
	windows := make([]WindowStat, len(rep.Windows))
	for i, w := range rep.Windows {
		windows[i] = WindowStat{UIPC: w.UIPC, Instructions: w.Instructions, Cycles: w.Cycles, PerCore: w.PerCore}
	}
	cores := uint64(r.Cores)
	res.CI = &SampleStats{
		Confidence:      r.Sampling.WithDefaults().Confidence,
		UIPC:            rep.UIPC,
		HalfWidth:       rep.HalfWidth,
		Converged:       rep.Converged,
		Windows:         windows,
		DetailedEvents:  uint64(rep.DetailedPerCore) * cores,
		SimulatedEvents: uint64(rep.ConsumedPerCore) * cores,
		FullRunEvents:   uint64(r.AccessesPerCore) * cores,
	}
	return res
}
