// Package sample implements SMARTS-style sampled simulation: instead of
// measuring one long contiguous interval, a run is scheduled as functional
// warmup followed by short detailed measurement windows separated by
// functional gaps, with a confidence interval computed over the per-window
// metrics. As in SMARTS, the sample is fixed before the run: every run
// measures every window its budget fits, and its final interval is then
// tested against a requested relative CI half-width (e.g. ±2% at 95%).
//
// Phase vocabulary, mapped onto this reproduction's engine (DESIGN.md §9):
//
//   - functional phases (warmup, inter-window gaps) advance every piece of
//     simulated state — cache content, predictor training, row buffers,
//     core clocks — but contribute nothing to the windowed throughput
//     estimate. The engine has no cheaper functional mode (its detailed
//     model *is* its state model), so functional events cost the same
//     wall-clock as detailed ones; a sampled run saves only the events
//     past its last window's end, which it never simulates.
//   - detailed windows are the measurement intervals: per-core
//     instruction/cycle snapshots at each window's boundaries feed the
//     summed per-core ratio estimator (stats.SummedRatios) whose
//     delta-method variance carries the confidence interval.
//
// A sampled run is an ordinary observed run of the machine's cursor
// (sim.Machine.BeginPhases/FinishRun): its warmup is the warmup phase, its
// window starts and ends are the boundary offsets of the one recorder
// telemetry also uses (internal/telemetry), taken inside one continuous
// replay and never by pausing it, and its windows are the recorder's
// epochs that start on a multiple of the schedule's stride.
//
// Everything is deterministic: a fixed Spec, Run configuration and seed
// yields a bit-identical Report, Converged included.
package sample

import (
	"fmt"
	"math"

	"unisoncache/internal/sim"
	"unisoncache/internal/stats"
	"unisoncache/internal/telemetry"
)

// Spec configures the sampling schedule and its confidence target. The
// zero value of a field selects its default; the -1 sentinels mirror
// Run.ScaleDivisor ("the default choice spelled explicitly" becomes
// "explicitly none").
type Spec struct {
	// WarmupFrac is the fraction of the run's event budget spent on
	// functional warmup before the first window (default 2/3, matching
	// the full-run pipeline so the windows subsample exactly the region
	// a full run measures; negative means no warmup).
	WarmupFrac float64
	// WarmupEvents, when positive, overrides WarmupFrac with an absolute
	// per-core event count. An absolute warmup pins the window schedule
	// to fixed event offsets independent of the run's budget.
	WarmupEvents int
	// IntervalEvents is the detailed window length, in events per core
	// (default 1000).
	IntervalEvents int
	// GapEvents is the functional gap between consecutive windows, in
	// events per core (default 3x IntervalEvents — a 25% detailed duty
	// cycle; -1 means no gap, tiling the windows back to back).
	GapEvents int
	// MinIntervals is the fewest windows a run must fit (default 4,
	// floor 2 — one window carries no variance information).
	MinIntervals int
	// MaxIntervals caps the window count (default 0: as many as the
	// event budget fits).
	MaxIntervals int
	// Confidence is the two-sided confidence level of the interval
	// (default 0.95).
	Confidence float64
	// TargetRelCI is the target Converged tests the final interval
	// against: the CI half-width over all windows divided by the mean
	// must be at or below it (default 0.03; -1 means no target, and
	// Converged stays false).
	TargetRelCI float64
}

// Default returns the fully defaulted spec.
func Default() Spec { return Spec{}.WithDefaults() }

// Enabled reports whether the spec turns sampling on: any non-zero spec
// does.
func (s Spec) Enabled() bool { return s != Spec{} }

// WithDefaults fills zero fields and canonicalizes negative sentinels to
// -1. It is idempotent — the facade's Run defaulting and the driver's own
// defaulting may both apply it — which is why "none" is stored as -1
// rather than collapsing to the zero that means "pick the default".
func (s Spec) WithDefaults() Spec {
	switch {
	case s.WarmupFrac == 0:
		s.WarmupFrac = 2.0 / 3.0
	case s.WarmupFrac < 0:
		s.WarmupFrac = -1
	}
	if s.IntervalEvents == 0 {
		s.IntervalEvents = 1000
	}
	switch {
	case s.GapEvents == 0:
		s.GapEvents = 3 * s.IntervalEvents
	case s.GapEvents < 0:
		s.GapEvents = -1
	}
	if s.MinIntervals == 0 {
		s.MinIntervals = 4
	}
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	switch {
	case s.TargetRelCI == 0:
		s.TargetRelCI = 0.03
	case s.TargetRelCI < 0:
		s.TargetRelCI = -1
	}
	return s
}

// warmup, gap and target resolve the -1 sentinels to their effective
// values.
func (s Spec) warmup() float64 {
	if s.WarmupFrac < 0 {
		return 0
	}
	return s.WarmupFrac
}

// warmupIn returns the warmup length for one run's event budget.
func (s Spec) warmupIn(accessesPerCore int) int {
	if s.WarmupEvents > 0 {
		if s.WarmupEvents > accessesPerCore {
			return accessesPerCore
		}
		return s.WarmupEvents
	}
	return int(float64(accessesPerCore) * s.warmup())
}

func (s Spec) gap() int {
	if s.GapEvents < 0 {
		return 0
	}
	return s.GapEvents
}

func (s Spec) target() float64 {
	if s.TargetRelCI < 0 {
		return 0
	}
	return s.TargetRelCI
}

// Validate checks a defaulted spec. Call it on s.WithDefaults(); raw specs
// still carrying zero values are not meaningful to validate.
func (s Spec) Validate() error {
	if s.WarmupFrac >= 1 || math.IsNaN(s.WarmupFrac) || (s.WarmupFrac < 0 && s.WarmupFrac != -1) {
		return fmt.Errorf("sample: WarmupFrac %v outside [0,1) (use -1 for none)", s.WarmupFrac)
	}
	if s.WarmupEvents < 0 || s.WarmupEvents > 1<<30 {
		return fmt.Errorf("sample: WarmupEvents %d outside [0, 2^30]", s.WarmupEvents)
	}
	if s.IntervalEvents < 1 {
		return fmt.Errorf("sample: IntervalEvents must be >= 1, got %d", s.IntervalEvents)
	}
	if s.IntervalEvents > 1<<30 {
		return fmt.Errorf("sample: IntervalEvents %d implausibly large", s.IntervalEvents)
	}
	if s.GapEvents > 1<<30 || (s.GapEvents < 0 && s.GapEvents != -1) {
		return fmt.Errorf("sample: GapEvents %d outside [0, 2^30] (use -1 for none)", s.GapEvents)
	}
	if s.MinIntervals < 2 {
		return fmt.Errorf("sample: MinIntervals must be >= 2 (one window carries no variance), got %d", s.MinIntervals)
	}
	if s.MaxIntervals < 0 {
		return fmt.Errorf("sample: MaxIntervals %d negative (0 means unlimited)", s.MaxIntervals)
	}
	if s.MaxIntervals != 0 && s.MaxIntervals < s.MinIntervals {
		return fmt.Errorf("sample: MaxIntervals %d below MinIntervals %d", s.MaxIntervals, s.MinIntervals)
	}
	if s.Confidence <= 0 || s.Confidence >= 1 || math.IsNaN(s.Confidence) {
		return fmt.Errorf("sample: Confidence %v outside (0,1)", s.Confidence)
	}
	if s.TargetRelCI >= 1 || math.IsNaN(s.TargetRelCI) || (s.TargetRelCI < 0 && s.TargetRelCI != -1) {
		return fmt.Errorf("sample: TargetRelCI %v outside [0,1) (use -1 for none)", s.TargetRelCI)
	}
	return nil
}

// Windows returns how many detailed windows the schedule fits into
// accessesPerCore events, and the warmup length.
func (s Spec) Windows(accessesPerCore int) (fit, warm int) {
	d := s.WithDefaults()
	warm = d.warmupIn(accessesPerCore)
	left := accessesPerCore - warm
	if left >= d.IntervalEvents {
		fit = 1 + (left-d.IntervalEvents)/(d.IntervalEvents+d.gap())
	}
	if d.MaxIntervals > 0 && fit > d.MaxIntervals {
		fit = d.MaxIntervals
	}
	return fit, warm
}

// Boundaries returns how many recorder boundaries the schedule sets over
// accessesPerCore events: every window's end, and its start too when a
// gap precedes it.
func (s Spec) Boundaries(accessesPerCore int) int {
	fit, _ := s.Windows(accessesPerCore)
	if fit == 0 || s.WithDefaults().gap() == 0 {
		return fit
	}
	return 2*fit - 1
}

// Report is one sampled run's outcome.
type Report struct {
	// Windows holds one entry per detailed measurement window, in
	// schedule order: the recorder's window epochs (gap epochs are left
	// out, so Index counts epochs, not windows). The per-window
	// (Instructions, Cycles) pairs are the estimator's samples.
	Windows []telemetry.Epoch
	// UIPC is the sampled throughput estimate: the summed per-core ratio
	// estimator Σ_core(Σinstr/Σcycles) over the windows, which reproduces
	// the whole-region UIPC exactly when the windows tile the region. A
	// naive mean of per-window UIPCs weights long and short windows
	// equally (several percent off), and any estimator built from window
	// aggregates alone misses the per-core cycle spread (tens of percent
	// off) — per-core pairing is load-bearing.
	UIPC float64
	// HalfWidth is the CI half-width on UIPC at Spec.Confidence.
	HalfWidth float64
	// Converged reports whether the relative CI half-width over all
	// windows is at or below TargetRelCI (always false when the target
	// is disabled).
	Converged bool
	// DetailedPerCore counts events per core inside detailed windows.
	// ConsumedPerCore counts every core's events in total (warmup + gaps
	// + windows): the warmup plus the last window's end. The rest of the
	// run's event budget lies past the last window and is never
	// simulated.
	DetailedPerCore int
	ConsumedPerCore int
	// Results covers the whole measured region — every event from the
	// first window's start through the last window's end, gaps included —
	// so ratio statistics (miss ratios, predictor accuracies, traffic)
	// use all post-warmup events. Results.UIPC is the region value, NOT
	// the windowed estimate; callers wanting the sampled estimator read
	// Report.UIPC.
	Results sim.Results
}

// Run executes the sampled schedule on a prepared machine: functional
// warmup, then one continuous replay measuring every detailed window the
// budget fits, separated by functional gaps, up to the last window's end.
// The window boundaries are recorder offsets on the machine's run cursor, so
// no synchronization barrier ever splits the schedule and the event
// interleaving (and therefore the contention physics) is the same one the
// full run replays. accessesPerCore bounds the total events pulled per
// core — a finite replay source sized to the run is never over-pulled.
func Run(m *sim.Machine, accessesPerCore int, spec Spec) (Report, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	fit, warm := spec.Windows(accessesPerCore)
	if fit < spec.MinIntervals {
		return Report{}, fmt.Errorf(
			"sample: %d accesses per core fit %d measurement windows after %d warmup events, need MinIntervals=%d (shorten the spec or lengthen the run)",
			accessesPerCore, fit, warm, spec.MinIntervals)
	}

	// Window w spans [w*stride, w*stride+IntervalEvents) past the warmup
	// boundary. Its start and end are recorder boundaries — except a start
	// at 0, the recorder's implicit measurement-boundary row, and a start
	// equal to the previous window's end (tiled windows) — so epochs
	// alternate window, gap, window, and an epoch starting on a multiple
	// of stride is a window. The measured phase ends at the last window's
	// end: nothing beyond it can be measured, so nothing beyond it is
	// simulated.
	stride := spec.IntervalEvents + spec.gap()
	offsets := make([]int, 0, spec.Boundaries(accessesPerCore))
	for w := 0; w < fit; w++ {
		if start := w * stride; w > 0 && start > offsets[len(offsets)-1] {
			offsets = append(offsets, start)
		}
		offsets = append(offsets, w*stride+spec.IntervalEvents)
	}

	m.Observe(func(int) []int { return offsets }, nil)
	m.BeginPhases(warm, offsets[len(offsets)-1])
	rep := Report{Results: m.FinishRun(), Windows: make([]telemetry.Epoch, 0, fit)}
	epochs, err := m.Recorder().Epochs()
	if err != nil {
		return Report{}, err
	}
	for _, e := range epochs {
		if e.StartEvents%stride == 0 { // a window, not a functional gap
			rep.Windows = append(rep.Windows, e)
		}
	}
	est := stats.NewSummedRatios(len(rep.Windows[0].PerCore))
	for _, w := range rep.Windows {
		est.AddWindow(ratioSamples(w.PerCore))
	}
	rep.UIPC = est.Value()
	rep.HalfWidth = est.CI(spec.Confidence)
	rep.Converged = spec.target() > 0 && est.RelCI(spec.Confidence) <= spec.target()
	rep.DetailedPerCore = len(rep.Windows) * spec.IntervalEvents
	rep.ConsumedPerCore = warm + offsets[len(offsets)-1]
	return rep, nil
}

// ratioSamples turns one window's per-core rows into the estimator's
// samples: retired instructions over elapsed cycles, one series per core.
func ratioSamples(perCore []telemetry.CoreRow) []stats.RatioSample {
	samples := make([]stats.RatioSample, len(perCore))
	for c, d := range perCore {
		samples[c] = stats.RatioSample{Y: float64(d.Instructions), X: float64(d.Cycles)}
	}
	return samples
}
