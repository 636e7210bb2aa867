package unisoncache

import (
	"fmt"

	"unisoncache/internal/telemetry"
)

// DefaultEpochEvents is the epoch length a TelemetrySpec gets when enabled
// without choosing one: 10k retired events per core per epoch.
const DefaultEpochEvents = telemetry.DefaultEpochEvents

// TelemetrySpec configures epoch-sliced counter telemetry — the public
// mirror of internal/telemetry.Spec, set on Run.Telemetry. The zero value
// disables it. A non-zero spec makes the run record per-core and
// per-design statistic deltas every EpochEvents retired events per core
// during the measured region, carried on Result.Timeline. Recording is
// barrier-free (the boundary recorder sampled runs measure their windows
// with), so the run's measured Results are bit-identical with telemetry
// on or off, and timelines compose bit-identically with time-parallel
// execution (Segments) and chunked/checkpointed replay. Telemetry and
// Sampling are mutually exclusive: epoch slicing needs every event
// simulated.
//
// TelemetrySpec is part of the service wire format; the JSON field names
// below are stable.
type TelemetrySpec struct {
	// EpochEvents is the epoch length in retired events per core
	// (default 10000). The final epoch is shorter when the measured
	// region is not a multiple.
	EpochEvents int `json:"EpochEvents"`
}

// DefaultTelemetrySpec returns the all-defaults telemetry configuration —
// assign it to Run.Telemetry to turn epoch timelines on.
func DefaultTelemetrySpec() TelemetrySpec {
	return fromInternalTelemetry(telemetry.Spec{}.WithDefaults())
}

// Enabled reports whether the spec turns telemetry on.
func (s TelemetrySpec) Enabled() bool { return s != (TelemetrySpec{}) }

// internal converts the public spec into the recorder's form.
func (s TelemetrySpec) internal() telemetry.Spec {
	return telemetry.Spec{EpochEvents: s.EpochEvents}
}

func fromInternalTelemetry(s telemetry.Spec) TelemetrySpec {
	return TelemetrySpec{EpochEvents: s.EpochEvents}
}

// withDefaults canonicalizes an enabled spec (idempotent).
func (s TelemetrySpec) withDefaults() TelemetrySpec {
	return fromInternalTelemetry(s.internal().WithDefaults())
}

// Timeline is a run's epoch-sliced counter timeline, carried on
// Result.Timeline when Run.Telemetry is set. Epochs are in schedule order
// and tile the measured region exactly: summing any counter over the
// epochs reproduces the corresponding whole-run Result counter.
type Timeline struct {
	// EpochEvents echoes the spec's epoch length.
	EpochEvents int
	Epochs      []TimelineEpoch
}

// TimelineCore is one core's share of an epoch: retired instructions and
// elapsed cycles within the slice.
type TimelineCore struct {
	Instructions uint64
	Cycles       uint64
}

// TimelineEpoch is one epoch's counter deltas. Start/EndEvents are
// per-core measured-event offsets; every core contributed exactly the
// events in [StartEvents, EndEvents).
type TimelineEpoch struct {
	Index       int
	StartEvents int
	EndEvents   int

	// UIPC is the summed per-core IPC over the epoch (the paper's
	// throughput metric, same estimator as Results.UIPC). Instructions is
	// the epoch total; Cycles the maximum per-core cycle delta.
	UIPC         float64
	Instructions uint64
	Cycles       uint64
	PerCore      []TimelineCore

	// DRAM cache design activity within the epoch.
	Reads             uint64
	ReadHits          uint64
	Writes            uint64
	WayPredHits       uint64
	WayPredLookups    uint64
	TriggerMisses     uint64
	UnderpredMisses   uint64
	SingletonSkips    uint64
	OffchipReadBytes  uint64
	OffchipWriteBytes uint64

	// DRAM controller occupancy: CPU cycles each part's data buses were
	// busy within the epoch.
	StackedBusyCycles uint64
	OffchipBusyCycles uint64

	// Shared L2 activity within the epoch.
	L2Accesses uint64
	L2Hits     uint64
}

// HitRatio is the epoch's DRAM-cache demand-read hit fraction (0 when the
// epoch saw no reads).
func (e TimelineEpoch) HitRatio() float64 {
	if e.Reads == 0 {
		return 0
	}
	return float64(e.ReadHits) / float64(e.Reads)
}

// WayPredMisses is the epoch's mispredicted way-predictor lookups.
func (e TimelineEpoch) WayPredMisses() uint64 { return e.WayPredLookups - e.WayPredHits }

// L2HitRatio is the epoch's shared-L2 hit fraction (0 when idle).
func (e TimelineEpoch) L2HitRatio() float64 {
	if e.L2Accesses == 0 {
		return 0
	}
	return float64(e.L2Hits) / float64(e.L2Accesses)
}

func fromEpoch(e telemetry.Epoch) TimelineEpoch {
	perCore := make([]TimelineCore, len(e.PerCore))
	for c, d := range e.PerCore {
		perCore[c] = TimelineCore{Instructions: d.Instructions, Cycles: d.Cycles}
	}
	return TimelineEpoch{
		Index:             e.Index,
		StartEvents:       e.StartEvents,
		EndEvents:         e.EndEvents,
		UIPC:              e.UIPC,
		Instructions:      e.Instructions,
		Cycles:            e.Cycles,
		PerCore:           perCore,
		Reads:             e.Reads,
		ReadHits:          e.ReadHits,
		Writes:            e.Writes,
		WayPredHits:       e.WayPredHits,
		WayPredLookups:    e.WayPredLookups,
		TriggerMisses:     e.TriggerMisses,
		UnderpredMisses:   e.UnderpredMisses,
		SingletonSkips:    e.SingletonSkips,
		OffchipReadBytes:  e.OffchipReadBytes,
		OffchipWriteBytes: e.OffchipWriteBytes,
		StackedBusyCycles: e.StackedBusyCycles,
		OffchipBusyCycles: e.OffchipBusyCycles,
		L2Accesses:        e.L2Accesses,
		L2Hits:            e.L2Hits,
	}
}

// timelineFrom assembles the public Timeline from a run's recorder (nil
// when the run had no measured events: an empty timeline).
func timelineFrom(rec *telemetry.Recorder, spec telemetry.Spec) (*Timeline, error) {
	tl := &Timeline{EpochEvents: spec.EpochEvents}
	if rec == nil {
		return tl, nil
	}
	epochs, err := rec.Epochs()
	if err != nil {
		return nil, fmt.Errorf("unisoncache: %w", err)
	}
	tl.Epochs = make([]TimelineEpoch, len(epochs))
	for i, e := range epochs {
		tl.Epochs[i] = fromEpoch(e)
	}
	return tl, nil
}

// ExecuteObserved is Execute with live epoch streaming: when the run has
// telemetry enabled, onEpoch is invoked with each timeline epoch the
// moment its closing boundary completes, in order — while the simulation
// is still running. Serial and serial-with-save executions stream truly
// live; a time-parallel repeat execution (Segments with all checkpoints
// present) records per segment and emits the merged timeline in order
// once segments complete. With telemetry disabled (or onEpoch nil) it
// behaves exactly like Execute.
func ExecuteObserved(r Run, onEpoch func(TimelineEpoch)) (Result, error) {
	return execute(r, onEpoch)
}
