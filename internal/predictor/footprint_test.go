package predictor

import (
	"testing"
	"testing/quick"

	"unisoncache/internal/mem"
)

func TestFootprintColdPredictsFullPage(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	fp := p.Predict(0x400, 3)
	if fp != (1<<15)-1 {
		t.Errorf("cold prediction = %#x, want full 15-block mask", fp)
	}
	if fp&(1<<3) == 0 {
		t.Error("trigger block not included")
	}
}

func TestFootprintLearnsAndRecalls(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	want := Footprint(0b101010101010101)
	p.Update(0x400, 0, want)
	got := p.Predict(0x400, 0)
	if got != want|1 {
		t.Errorf("Predict = %#b, want learned %#b", got, want|1)
	}
}

func TestFootprintTriggerAlwaysIncluded(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	p.Update(0x400, 7, 0b1) // learned footprint excludes block 7
	got := p.Predict(0x400, 7)
	if got&(1<<7) == 0 {
		t.Error("trigger block missing from prediction")
	}
}

func TestFootprintMasksToPageSize(t *testing.T) {
	p := NewFootprintPredictor(64, 15)
	p.Update(1, 0, ^Footprint(0))
	if got := p.Predict(1, 0); got != (1<<15)-1 {
		t.Errorf("prediction %#x exceeds 15-block page", got)
	}
	p32 := NewFootprintPredictor(64, 32)
	p32.Update(1, 0, ^Footprint(0))
	if got := p32.Predict(1, 0); got != ^Footprint(0) {
		t.Errorf("32-block page prediction = %#x", got)
	}
}

func TestFootprintDistinguishesTriggers(t *testing.T) {
	p := NewFootprintPredictor(1<<16, 15)
	p.Update(0xAAA, 1, 0b0011)
	p.Update(0xBBB, 1, 0b1100)
	if a, b := p.Predict(0xAAA, 1), p.Predict(0xBBB, 1); a == b {
		t.Errorf("different PCs predicted identically: %#b", a)
	}
	p.Update(0xAAA, 2, 0b111000000)
	if a, b := p.Predict(0xAAA, 1), p.Predict(0xAAA, 2); a == b {
		t.Error("different offsets predicted identically")
	}
}

func TestFootprintEvictionAccounting(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	// predicted {0,1,2,3}, actual {0,1,4}: 2 of 3 actual covered, 2 of 4
	// fetched wasted.
	p.RecordEviction(1, 0, 0b1111, 0b10011)
	s := p.Stats()
	if got := s.Accuracy.Value(); got != 2.0/3 {
		t.Errorf("Accuracy = %v, want 2/3", got)
	}
	if got := s.Overfetch.Value(); got != 2.0/4 {
		t.Errorf("Overfetch = %v, want 1/2", got)
	}
}

func TestFootprintPerfectPredictionStats(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	for i := 0; i < 100; i++ {
		p.RecordEviction(uint64(i), 0, 0b10101, 0b10101)
	}
	s := p.Stats()
	if s.Accuracy.Percent() != 100 {
		t.Errorf("perfect accuracy = %v%%", s.Accuracy.Percent())
	}
	if s.Overfetch.Percent() != 0 {
		t.Errorf("perfect overfetch = %v%%", s.Overfetch.Percent())
	}
}

func TestFootprintEvictionTrains(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	p.RecordEviction(9, 2, (1<<15)-1, 0b10100)
	if got := p.Predict(9, 2); got != 0b10100|(1<<2) {
		t.Errorf("post-eviction prediction = %#b, want trained 0b10100|trigger", got)
	}
}

func TestFootprintAccuracyBounds(t *testing.T) {
	p := NewFootprintPredictor(256, 32)
	f := func(pred, act Footprint) bool {
		p.RecordEviction(uint64(pred), int(act%32), pred, act)
		s := p.Stats()
		a := s.Accuracy.Value()
		o := s.Overfetch.Value()
		return a >= 0 && a <= 1 && o >= 0 && o <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFootprintResetStatsKeepsLearning(t *testing.T) {
	p := NewFootprintPredictor(4096, 15)
	p.RecordEviction(5, 1, 0b111, 0b11)
	p.ResetStats()
	if p.Stats().Accuracy.Den != 0 {
		t.Error("ResetStats did not zero")
	}
	if got := p.Predict(5, 1); got != 0b11|0b10 {
		t.Errorf("ResetStats lost learned footprint: %#b", got)
	}
}

func TestFootprintSizeMatchesTable2(t *testing.T) {
	// Table II: Footprint History Table 144KB. 16K entries x 9B = 144KB.
	p := NewFootprintPredictor(16384, 32)
	if got := p.SizeBytes(); got != 144<<10 {
		t.Errorf("SizeBytes = %d, want 147456 (144KB)", got)
	}
}

func TestFootprintBadPageBlocksPanics(t *testing.T) {
	for _, n := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pageBlocks=%d did not panic", n)
				}
			}()
			NewFootprintPredictor(16, n)
		}()
	}
}

func TestFootprintZeroActualNoAccuracySample(t *testing.T) {
	p := NewFootprintPredictor(64, 15)
	p.RecordEviction(1, 0, 0b111, 0)
	if p.Stats().Accuracy.Den != 0 {
		t.Error("zero-footprint eviction contributed to accuracy denominator")
	}
	if p.Stats().Overfetch.Num != 3 {
		t.Error("fully wasted fetch not counted as overfetch")
	}
}

func TestMix64Determinism(t *testing.T) {
	if mem.Mix64(42) != mem.Mix64(42) {
		t.Error("Mix64 not deterministic")
	}
}
