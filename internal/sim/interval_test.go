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
func observeWindows(m *Machine, offsets []int, stride int, visit func(e telemetry.Epoch)) {
	m.Observe(func(int) []int { return offsets }, func(e telemetry.Epoch) {
		if e.StartEvents%stride == 0 {
			visit(e)
		}
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
	observeWindows(sampled, windowOffsets(3, stride, length), stride, func(telemetry.Epoch) {
		windows++
	})
	sampled.BeginPhases(warm, span)
	got := sampled.FinishRun()

	for c, rem := range sampled.remaining {
		if rem != 0 {
			t.Fatalf("core %d has %d of its %d measured events left", c, rem, span)
		}
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
	observeWindows(m, windowOffsets(windows, length, length), length, func(e telemetry.Epoch) {
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
