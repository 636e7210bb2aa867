package sim

import (
	"testing"

	"unisoncache/internal/telemetry"
)

// TestFoldHappens: a machine replaying outcome streams folds its L1 hits
// out of the schedule, and one simulating its L1s does not. Both stop
// exactly on every RunTo target, warmup and measurement alike, yet some
// core has consumed a different share of the steps on the two machines —
// the folding core ran its hits ahead of the other cores' turns. The
// finished runs are still the same.
func TestFoldHappens(t *testing.T) {
	cfg := smallConfig(4)
	const events = 6000
	c, o := testCapture(t, cfg, "web-serving", events)
	live := replayMachine(t, cfg, c, nil, 0)
	folded := replayMachine(t, cfg, c, o, events)
	live.BeginRun(events)
	folded.BeginRun(events)
	total := live.TotalSteps()
	apart := 0
	for sevenths := uint64(1); sevenths < 7; sevenths++ {
		target := total * sevenths / 7
		live.RunTo(target)
		folded.RunTo(target)
		if live.run.step != target || folded.run.step != target {
			t.Fatalf("RunTo(%d) left the live machine at step %d and the folding one at %d", target, live.run.step, folded.run.step)
		}
		for i := range live.remaining {
			if live.remaining[i] != folded.remaining[i] {
				apart++
				break
			}
		}
	}
	if apart == 0 {
		t.Error("every core's countdown matched the live machine's at every target: no L1 hit was folded")
	}
	if got, want := folded.FinishRun(), live.FinishRun(); !resultsEqual(got, want) {
		t.Errorf("folding replay diverged from the live L1s:\nlive   %+v\nfolded %+v", want, got)
	}
}

// TestFoldEarlyStopIsExact: when an emit stops an observed run, the hits
// folded past the stopping step are handed back. The outcome-driven
// machine then stands exactly where the live-L1 machine, which never
// folds, stops the same run: the same Results, measured events and step
// count, and on every core the same clock, instructions, countdown and
// slab position. The run stops after each of its first four windows in
// turn, so the stopping step is an L1 hit in some runs and a miss in
// others.
func TestFoldEarlyStopIsExact(t *testing.T) {
	cfg := smallConfig(4)
	const warm, stride, length = 2_000, 1_500, 500
	offsets := windowOffsets(5, stride, length)
	events := warm + offsets[len(offsets)-1]
	c, o := testCapture(t, cfg, "web-serving", events)
	for stopAfter := 1; stopAfter <= 4; stopAfter++ {
		stopped := func(m *Machine) (Results, int) {
			windows := 0
			observeWindows(m, offsets, stride, func(telemetry.Epoch) bool {
				windows++
				return windows < stopAfter
			})
			m.BeginPhases(warm, offsets[len(offsets)-1])
			res := m.FinishRun()
			if windows != stopAfter {
				t.Fatalf("measured %d windows, want the stop after window %d", windows, stopAfter)
			}
			return res, m.MeasuredEvents()
		}
		live := replayMachine(t, cfg, c, nil, 0)
		folded := replayMachine(t, cfg, c, o, events)
		wantRes, wantMeas := stopped(live)
		gotRes, gotMeas := stopped(folded)
		if !resultsEqual(gotRes, wantRes) {
			t.Errorf("stop after window %d: Results diverge:\nlive   %+v\nfolded %+v", stopAfter, wantRes, gotRes)
		}
		if gotMeas != wantMeas {
			t.Errorf("stop after window %d: MeasuredEvents %d, live machine %d", stopAfter, gotMeas, wantMeas)
		}
		if folded.run.step != live.run.step {
			t.Errorf("stop after window %d: stopped at step %d, live machine at %d", stopAfter, folded.run.step, live.run.step)
		}
		for i := range live.cores {
			l, f := &live.cores[i], &folded.cores[i]
			if f.clock != l.clock || f.instr != l.instr || folded.remaining[i] != live.remaining[i] || f.pos != l.pos {
				t.Errorf("stop after window %d: core %d stopped at clock %d, instr %d, remaining %d, pos %d; live machine at %d, %d, %d, %d",
					stopAfter, i, f.clock, f.instr, folded.remaining[i], f.pos, l.clock, l.instr, live.remaining[i], l.pos)
			}
		}
	}
}
