package sim

import (
	"reflect"
	"testing"

	"unisoncache/internal/telemetry"
)

// stepTo drives m to global step target one step per RunTo call. A budget
// of one step leaves the fold no room, so the machine runs the unfolded
// schedule: the reference every folding machine is held to, for either
// kind of core.
func stepTo(m *Machine, target uint64) {
	target = min(target, m.TotalSteps())
	for m.run.step < target {
		m.RunTo(m.run.step + 1)
	}
}

// coreKind is one of the two kinds of core that fold: one that simulates
// its L1 (out nil) and one that reads a capture's outcome streams.
type coreKind struct {
	name string
	out  *L1Outcomes
}

func coreKinds(o *L1Outcomes) []coreKind {
	return []coreKind{{"live L1", nil}, {"outcome streams", o}}
}

// TestFoldHappens: a machine folds its L1 hits out of the schedule,
// whether it simulates its L1s or replays outcome streams. It stops
// exactly on every RunTo target, warmup and measurement alike, yet some
// core has consumed a different share of the steps than on the same
// machine stepped one event at a time — the folding core ran its hits
// ahead of the other cores' turns. The finished runs are still the same.
func TestFoldHappens(t *testing.T) {
	cfg := smallConfig(4)
	const events = 6000
	c, o := testCapture(t, cfg, "web-serving", events)
	for _, k := range coreKinds(o) {
		out := k.out
		t.Run(k.name, func(t *testing.T) {
			stepped := replayMachine(t, cfg, c, out, events)
			folded := replayMachine(t, cfg, c, out, events)
			stepped.BeginRun(events)
			folded.BeginRun(events)
			total := stepped.TotalSteps()
			apart := 0
			for sevenths := uint64(1); sevenths < 7; sevenths++ {
				target := total * sevenths / 7
				stepTo(stepped, target)
				folded.RunTo(target)
				if stepped.run.step != target || folded.run.step != target {
					t.Fatalf("RunTo(%d) left the stepped machine at step %d and the folding one at %d", target, stepped.run.step, folded.run.step)
				}
				for i := range stepped.remaining {
					if stepped.remaining[i] != folded.remaining[i] {
						apart++
						break
					}
				}
			}
			if apart == 0 {
				t.Error("every core's countdown matched the stepped machine's at every target: no L1 hit was folded")
			}
			stepTo(stepped, total)
			if got, want := folded.FinishRun(), stepped.FinishRun(); !resultsEqual(got, want) {
				t.Errorf("folding run diverged from the stepped one:\nstepped %+v\nfolded  %+v", want, got)
			}
		})
	}
}

// TestFoldObservedIsExact: a recorder-armed run folds its L1 hits under
// the recorder's clamped countdowns, yet every boundary stays a real step.
// Run to its end, each kind of folding machine emits the same epochs as
// the same machine stepped one event at a time, which never folds, and
// finishes with the same Results, step count, and on every core the same
// clock, instructions, countdown and slab position.
func TestFoldObservedIsExact(t *testing.T) {
	checkObserved(t, smallConfig(4), 2_000, 1_500, 500)
}

// TestFoldObservedIsExactFullSize is TestFoldObservedIsExact on the Table
// III machine's 16 cores over a 16 × 21,200-event capture, so every core
// folds under the recorder at the scale of a real run's windows.
func TestFoldObservedIsExactFullSize(t *testing.T) {
	checkObserved(t, Default(), 6_000, 3_500, 1_200)
}

// checkObserved records a web-serving capture on cfg's cores long enough
// for warm warmup events and five windows of length events every stride,
// and runs it observed to the end on both kinds of core. Each folding
// machine must finish where the stepped one does.
func checkObserved(t *testing.T, cfg Config, warm, stride, length int) {
	t.Helper()
	offsets := windowOffsets(5, stride, length)
	events := warm + offsets[len(offsets)-1]
	c, o := testCapture(t, cfg, "web-serving", events)
	for _, k := range coreKinds(o) {
		kind, out := k.name, k.out
		observed := func(m *Machine, stepped bool) ([]telemetry.Epoch, Results) {
			var epochs []telemetry.Epoch
			m.Observe(func(int) []int { return offsets }, func(e telemetry.Epoch) {
				epochs = append(epochs, e)
			})
			m.BeginPhases(warm, offsets[len(offsets)-1])
			if stepped {
				stepTo(m, m.TotalSteps())
			}
			res := m.FinishRun()
			if len(epochs) != len(offsets) {
				t.Fatalf("%s: emitted %d epochs, want one per boundary, %d", kind, len(epochs), len(offsets))
			}
			return epochs, res
		}
		stepped := replayMachine(t, cfg, c, out, events)
		folded := replayMachine(t, cfg, c, out, events)
		wantEpochs, wantRes := observed(stepped, true)
		gotEpochs, gotRes := observed(folded, false)
		for i := range wantEpochs {
			if !reflect.DeepEqual(gotEpochs[i], wantEpochs[i]) {
				t.Errorf("%s: epoch %d diverges:\nstepped %+v\nfolded  %+v", kind, i, wantEpochs[i], gotEpochs[i])
			}
		}
		if !resultsEqual(gotRes, wantRes) {
			t.Errorf("%s: Results diverge:\nstepped %+v\nfolded  %+v", kind, wantRes, gotRes)
		}
		if folded.run.step != stepped.run.step {
			t.Errorf("%s: finished at step %d, stepped machine at %d", kind, folded.run.step, stepped.run.step)
		}
		for i := range stepped.cores {
			s, f := &stepped.cores[i], &folded.cores[i]
			if f.clock != s.clock || f.instr != s.instr || folded.remaining[i] != stepped.remaining[i] || f.pos != s.pos {
				t.Errorf("%s: core %d finished at clock %d, instr %d, remaining %d, pos %d; stepped machine at %d, %d, %d, %d",
					kind, i, f.clock, f.instr, folded.remaining[i], f.pos, s.clock, s.instr, stepped.remaining[i], s.pos)
			}
		}
	}
}
