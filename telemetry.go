package unisoncache

import (
	"fmt"

	"unisoncache/internal/telemetry"
)

// DefaultEpochEvents is the epoch length a TelemetrySpec gets when enabled
// without choosing one: 10k retired events per core per epoch.
const DefaultEpochEvents = telemetry.DefaultEpochEvents

// TelemetrySpec configures epoch-sliced counter telemetry, set on
// Run.Telemetry. It is internal/telemetry.Spec. The zero value disables
// it. A non-zero spec makes the run record per-core and per-design
// statistic deltas every EpochEvents retired events per core (default
// DefaultEpochEvents) during the measured region, carried on
// Result.Timeline. Recording is barrier-free (the boundary recorder
// sampled runs measure their windows with), so the run's measured Results
// are bit-identical with telemetry on or off. A telemetry run replays
// serially whatever its Segments, and never touches the snapshot store.
// Telemetry and Sampling are mutually exclusive: epoch slicing needs every
// event simulated.
//
// TelemetrySpec is part of the service wire format; its JSON field names
// are its Go field names and are stable.
type TelemetrySpec = telemetry.Spec

// DefaultTelemetrySpec returns the all-defaults telemetry configuration —
// assign it to Run.Telemetry to turn epoch timelines on.
func DefaultTelemetrySpec() TelemetrySpec { return telemetry.Spec{}.WithDefaults() }

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
// elapsed cycles within the slice. It is internal/telemetry.CoreRow; its
// JSON field names are stable.
type TimelineCore = telemetry.CoreRow

// TimelineEpoch is one epoch's counter deltas, with HitRatio,
// WayPredMisses and L2HitRatio helpers. It is internal/telemetry.Epoch,
// whose field docs describe each counter. Start/EndEvents are per-core
// measured-event offsets; every core contributed exactly the events in
// [StartEvents, EndEvents). TimelineEpoch is part of the service wire
// format (the telemetry stream's NDJSON lines); its JSON field names are
// its Go field names and are stable.
type TimelineEpoch = telemetry.Epoch

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
	tl.Epochs = epochs
	return tl, nil
}

// ExecuteObserved is Execute with live epoch streaming: when the run has
// telemetry enabled, onEpoch is invoked with each timeline epoch the
// moment its closing boundary completes, in order — while the simulation
// is still running. With telemetry disabled (or onEpoch nil) it behaves
// exactly like Execute.
func ExecuteObserved(r Run, onEpoch func(TimelineEpoch)) (Result, error) {
	return execute(r, onEpoch)
}
