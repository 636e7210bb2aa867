package sim

import (
	"encoding/json"
	"testing"

	"unisoncache/internal/telemetry"
)

// windowOffsets lays out sampled-style recorder boundaries: window w spans
// [w*stride, w*stride+length), a start at 0 is the implicit measurement
// boundary and a start equal to the previous end (tiled windows) is the
// same boundary.
func windowOffsets(windows, stride, length int) []int {
	var offsets []int
	for w := 0; w < windows; w++ {
		if start := w * stride; w > 0 && start > offsets[len(offsets)-1] {
			offsets = append(offsets, start)
		}
		offsets = append(offsets, w*stride+length)
	}
	return offsets
}

// observeWindows arms m with offsets and hands every window epoch — one
// starting on a stride multiple — to visit; gap epochs go on silently.
func observeWindows(m *Machine, offsets []int, stride int, visit func(e telemetry.Epoch) bool) {
	m.Observe(func(int) []int { return offsets }, func(e telemetry.Epoch) bool {
		if e.StartEvents%stride != 0 {
			return true
		}
		return visit(e)
	})
}

// TestObservedWindowsNoBarrier pins the property the sampled path is built
// on: measuring windows as recorder epochs leaves the simulation
// bit-identical to an unobserved run of the same phases — boundaries are
// pure snapshots, never synchronization barriers.
func TestObservedWindowsNoBarrier(t *testing.T) {
	cfg := Default()
	cfg.Cores = 4
	const warm, span, stride, length = 3_000, 6_000, 2_500, 1_000

	plain := testMachine(t, cfg, "data-serving", noneDesign)
	plain.BeginPhases(warm, span)
	want := plain.FinishRun()

	sampled := testMachine(t, cfg, "data-serving", noneDesign)
	windows := 0
	observeWindows(sampled, windowOffsets(3, stride, length), stride, func(telemetry.Epoch) bool {
		windows++
		return true
	})
	sampled.BeginPhases(warm, span)
	got := sampled.FinishRun()

	if consumed := sampled.MeasuredEvents(); consumed != span {
		t.Fatalf("consumed %d events per core, want the full span %d", consumed, span)
	}
	if windows != 3 {
		t.Fatalf("measured %d windows, want 3", windows)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("window boundaries perturbed the simulation:\nplain:   %s\nsampled: %s", a, b)
	}
}

// TestObservedWindowsTiling: windows tiling the whole span telescope — the
// per-core window sums equal the region totals exactly.
func TestObservedWindowsTiling(t *testing.T) {
	cfg := Default()
	cfg.Cores = 4
	m := testMachine(t, cfg, "web-serving", noneDesign)
	const windows, length = 5, 800
	perCore := make([]telemetry.CoreRow, cfg.Cores)
	var instr uint64
	n := 0
	observeWindows(m, windowOffsets(windows, length, length), length, func(e telemetry.Epoch) bool {
		if e.Index != n {
			t.Fatalf("windows out of order: got %d, want %d", e.Index, n)
		}
		n++
		if e.UIPC <= 0 || e.Instructions == 0 || e.Cycles == 0 {
			t.Fatalf("window %d: empty metrics %+v", e.Index, e)
		}
		for c, d := range e.PerCore {
			perCore[c].Instructions += d.Instructions
			perCore[c].Cycles += d.Cycles
		}
		instr += e.Instructions
		return true
	})
	m.BeginPhases(2_000, windows*length)
	res := m.FinishRun()
	if n != windows {
		t.Fatalf("measured %d windows, want %d", n, windows)
	}
	if res.Instructions != instr {
		t.Errorf("windows retired %d instructions, region reports %d", instr, res.Instructions)
	}
	var uipc float64
	for _, d := range perCore {
		if d.Cycles > 0 {
			uipc += float64(d.Instructions) / float64(d.Cycles)
		}
	}
	if diff := uipc - res.UIPC; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-core window sums give UIPC %v, region %v", uipc, res.UIPC)
	}
}

// TestObservedEarlyStop: an emit returning false ends the run without
// simulating the remaining schedule — FinishRun advances it no further —
// and gap events between windows still land in the region statistics.
func TestObservedEarlyStop(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	m := testMachine(t, cfg, "web-search", noneDesign)
	// Five 500-event windows every 2000 events: horizon 8500.
	const stride, length = 2_000, 500
	offsets := windowOffsets(5, stride, length)
	horizon := offsets[len(offsets)-1]
	var first telemetry.Epoch
	windows := 0
	observeWindows(m, offsets, stride, func(e telemetry.Epoch) bool {
		windows++
		first = e
		return false // stop after the first window
	})
	m.BeginPhases(2_000, horizon)
	res := m.FinishRun()
	if windows != 1 {
		t.Fatalf("measured %d windows after the stop, want 1", windows)
	}
	consumed := m.MeasuredEvents()
	if consumed >= horizon {
		t.Fatalf("early stop consumed the whole horizon (%d)", consumed)
	}
	if consumed < length {
		t.Fatalf("consumed %d events, yet the first window needs %d", consumed, length)
	}
	if res.Instructions < first.Instructions {
		t.Errorf("region instructions %d below the measured window's %d", res.Instructions, first.Instructions)
	}
}
