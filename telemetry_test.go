package unisoncache

import (
	"encoding/json"
	"reflect"
	"testing"
)

// telemetryRun is a small-but-real configuration: big enough to cross
// several epoch boundaries per core, small enough to replay many designs.
func telemetryRun(design DesignKind, workload string) Run {
	return Run{
		Workload:        workload,
		Design:          design,
		Capacity:        1 << 30,
		AccessesPerCore: 20_000,
		Cores:           4,
		Telemetry:       TelemetrySpec{EpochEvents: 1_000},
	}
}

// TestTelemetryEpochSumsMatchResult is the conservation wall: the epochs
// tile the measured region, so summing any counter over them must
// reproduce the corresponding whole-run Result counter exactly — across
// every design (each exercises a different subset of the counters) and
// two workloads.
func TestTelemetryEpochSumsMatchResult(t *testing.T) {
	designs := []DesignKind{DesignUnison, DesignAlloy, DesignFootprint, DesignIdeal, DesignNone}
	workloads := []string{"web-search", "data-serving"}
	for _, d := range designs {
		for _, w := range workloads {
			t.Run(string(d)+"/"+w, func(t *testing.T) {
				res, err := Execute(telemetryRun(d, w))
				if err != nil {
					t.Fatal(err)
				}
				if res.Timeline == nil {
					t.Fatal("telemetry enabled but Result.Timeline is nil")
				}
				checkTimelineSums(t, res)
			})
		}
	}
}

func checkTimelineSums(t *testing.T, res Result) {
	t.Helper()
	tl := res.Timeline
	meas := res.Run.AccessesPerCore - int(float64(res.Run.AccessesPerCore)*2.0/3.0)
	if len(tl.Epochs) == 0 {
		t.Fatal("empty timeline")
	}
	// The epochs tile [0, meas) contiguously.
	prevEnd := 0
	for i, e := range tl.Epochs {
		if e.Index != i {
			t.Errorf("epoch %d carries index %d", i, e.Index)
		}
		if e.StartEvents != prevEnd {
			t.Errorf("epoch %d starts at %d, want %d", i, e.StartEvents, prevEnd)
		}
		if e.EndEvents <= e.StartEvents {
			t.Errorf("epoch %d is empty: [%d, %d)", i, e.StartEvents, e.EndEvents)
		}
		prevEnd = e.EndEvents
	}
	if prevEnd != meas {
		t.Errorf("timeline ends at %d, measured region is %d events per core", prevEnd, meas)
	}

	type sums struct {
		instr, reads, readHits, writes              uint64
		wpHits, wpLookups                           uint64
		trigger, underpred, singleton               uint64
		offRead, offWrite, stackedBusy, offchipBusy uint64
		l2Accesses, l2Hits                          uint64
		perCoreInstr, perCoreCycles                 []uint64
	}
	s := sums{
		perCoreInstr:  make([]uint64, res.Run.Cores),
		perCoreCycles: make([]uint64, res.Run.Cores),
	}
	for _, e := range tl.Epochs {
		s.instr += e.Instructions
		s.reads += e.Reads
		s.readHits += e.ReadHits
		s.writes += e.Writes
		s.wpHits += e.WayPredHits
		s.wpLookups += e.WayPredLookups
		s.trigger += e.TriggerMisses
		s.underpred += e.UnderpredMisses
		s.singleton += e.SingletonSkips
		s.offRead += e.OffchipReadBytes
		s.offWrite += e.OffchipWriteBytes
		s.stackedBusy += e.StackedBusyCycles
		s.offchipBusy += e.OffchipBusyCycles
		s.l2Accesses += e.L2Accesses
		s.l2Hits += e.L2Hits
		if len(e.PerCore) != res.Run.Cores {
			t.Fatalf("epoch %d has %d per-core rows, want %d", e.Index, len(e.PerCore), res.Run.Cores)
		}
		for c, d := range e.PerCore {
			s.perCoreInstr[c] += d.Instructions
			s.perCoreCycles[c] += d.Cycles
		}
	}

	if s.instr != res.Instructions {
		t.Errorf("Σ epoch Instructions = %d, Result.Instructions = %d", s.instr, res.Instructions)
	}
	var maxCycles, sumInstr uint64
	for c := range s.perCoreCycles {
		sumInstr += s.perCoreInstr[c]
		if s.perCoreCycles[c] > maxCycles {
			maxCycles = s.perCoreCycles[c]
		}
	}
	if sumInstr != res.Instructions {
		t.Errorf("Σ per-core epoch instructions = %d, Result.Instructions = %d", sumInstr, res.Instructions)
	}
	if maxCycles != res.Cycles {
		t.Errorf("max_c Σ epoch cycles = %d, Result.Cycles = %d", maxCycles, res.Cycles)
	}
	if s.reads != res.Design.Reads || s.readHits != res.Design.ReadHits || s.writes != res.Design.Writes {
		t.Errorf("design sums (reads %d hits %d writes %d) != Result (%d %d %d)",
			s.reads, s.readHits, s.writes, res.Design.Reads, res.Design.ReadHits, res.Design.Writes)
	}
	if s.trigger != res.Design.TriggerMisses || s.underpred != res.Design.UnderpredMisses || s.singleton != res.Design.SingletonSkips {
		t.Errorf("miss-taxonomy sums (%d %d %d) != Result (%d %d %d)",
			s.trigger, s.underpred, s.singleton,
			res.Design.TriggerMisses, res.Design.UnderpredMisses, res.Design.SingletonSkips)
	}
	if s.offRead != res.Design.OffchipReadBytes || s.offWrite != res.Design.OffchipWriteBytes {
		t.Errorf("off-chip traffic sums (%d %d) != Result (%d %d)",
			s.offRead, s.offWrite, res.Design.OffchipReadBytes, res.Design.OffchipWriteBytes)
	}
	if wp := res.Design.WP; wp != nil {
		if s.wpHits != wp.Num || s.wpLookups != wp.Den {
			t.Errorf("way-predictor sums (%d/%d) != Result WP (%d/%d)", s.wpHits, s.wpLookups, wp.Num, wp.Den)
		}
	} else if s.wpHits != 0 || s.wpLookups != 0 {
		t.Errorf("design without way predictor recorded WP activity (%d/%d)", s.wpHits, s.wpLookups)
	}
	if s.stackedBusy != res.Stacked.BusBusyCPU || s.offchipBusy != res.Offchip.BusBusyCPU {
		t.Errorf("controller occupancy sums (%d %d) != Result (%d %d)",
			s.stackedBusy, s.offchipBusy, res.Stacked.BusBusyCPU, res.Offchip.BusBusyCPU)
	}
	if s.l2Accesses != res.L2.Accesses || s.l2Hits != res.L2.Hits {
		t.Errorf("L2 sums (%d %d) != Result (%d %d)", s.l2Accesses, s.l2Hits, res.L2.Accesses, res.L2.Hits)
	}
}

// TestTelemetryOnOffBitIdentity: recording must not perturb the replay.
// With the timeline and the echoed spec stripped, the telemetry run's
// Result must marshal byte-identically to the plain run's.
func TestTelemetryOnOffBitIdentity(t *testing.T) {
	for _, d := range []DesignKind{DesignUnison, DesignFootprint} {
		t.Run(string(d), func(t *testing.T) {
			r := telemetryRun(d, "web-search")
			on, err := Execute(r)
			if err != nil {
				t.Fatal(err)
			}
			r.Telemetry = TelemetrySpec{}
			off, err := Execute(r)
			if err != nil {
				t.Fatal(err)
			}
			on.Timeline = nil
			on.Run.Telemetry = TelemetrySpec{}
			onJSON, _ := json.MarshalIndent(on, "", "  ")
			offJSON, _ := json.MarshalIndent(off, "", "  ")
			if string(onJSON) != string(offJSON) {
				t.Errorf("telemetry perturbed the measured Result:\non:  %s\noff: %s", onJSON, offJSON)
			}
		})
	}
}

// TestTelemetrySegmentedMatchesSerial: a telemetry run ignores Segments,
// as a sampled run does. With Segments 4 it replays serially, writes no
// snapshot, and returns the Segments 0 run's Result, timeline and live
// epochs — also after a plain Segments 4 run has filled the store.
func TestTelemetrySegmentedMatchesSerial(t *testing.T) {
	r := telemetryRun(DesignUnison, "web-search")
	observe := func(r Run) (Result, []TimelineEpoch) {
		t.Helper()
		var live []TimelineEpoch
		res, err := ExecuteObserved(r, func(e TimelineEpoch) { live = append(live, e) })
		if err != nil {
			t.Fatal(err)
		}
		return res, live
	}
	serial, serialLive := observe(r)
	if serial.Timeline == nil || len(serial.Timeline.Epochs) == 0 {
		t.Fatal("serial run recorded no timeline")
	}
	if !reflect.DeepEqual(serialLive, serial.Timeline.Epochs) {
		t.Error("live-streamed epochs differ from the assembled timeline")
	}

	seg := r
	seg.Segments = 4
	check := func(store string) {
		t.Helper()
		got, live := observe(seg)
		if got.Run.Segments != 4 {
			t.Errorf("%s store: echoed Segments = %d, want 4", store, got.Run.Segments)
		}
		if g, w := resultJSON(t, got), resultJSON(t, serial); g != w {
			t.Errorf("%s store: Segments changed a telemetry run\nSegments 4: %s\nSegments 0: %s", store, g, w)
		}
		if !reflect.DeepEqual(live, serialLive) {
			t.Errorf("%s store: Segments changed the live epochs", store)
		}
	}
	ckStore.Reset()
	check("cold")
	if n := ckStore.Len(); n != 0 {
		t.Errorf("a telemetry run with Segments 4 wrote %d snapshots, want 0", n)
	}
	plain := seg
	plain.Telemetry = TelemetrySpec{}
	if _, err := Execute(plain); err != nil {
		t.Fatal(err)
	}
	if ckStore.Len() == 0 {
		t.Fatal("the plain Segments 4 run wrote no snapshots")
	}
	check("warm")
}

// TestTelemetryValidation pins the spec's error surface: sampling and
// telemetry are mutually exclusive, and a negative epoch length is
// rejected rather than defaulted.
func TestTelemetryValidation(t *testing.T) {
	r := telemetryRun(DesignUnison, "web-search")
	r.Sampling = DefaultSampleSpec()
	if _, err := Execute(r); err == nil {
		t.Error("Telemetry+Sampling accepted, want error")
	}
	r = telemetryRun(DesignUnison, "web-search")
	r.Telemetry = TelemetrySpec{EpochEvents: -5}
	if _, err := Execute(r); err == nil {
		t.Error("negative EpochEvents accepted, want error")
	}
}

// TestTelemetryDefaults: an enabled spec canonicalizes through the
// defaults, and the epoch length is echoed on the timeline.
func TestTelemetryDefaults(t *testing.T) {
	if got := DefaultTelemetrySpec().EpochEvents; got != DefaultEpochEvents {
		t.Errorf("DefaultTelemetrySpec().EpochEvents = %d, want %d", got, DefaultEpochEvents)
	}
	r := telemetryRun(DesignNone, "web-search")
	res, err := Execute(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Telemetry.EpochEvents != 1_000 {
		t.Errorf("echoed EpochEvents = %d, want 1000", res.Run.Telemetry.EpochEvents)
	}
	if res.Timeline.EpochEvents != 1_000 {
		t.Errorf("Timeline.EpochEvents = %d, want 1000", res.Timeline.EpochEvents)
	}
}
