package dramcache

import (
	"math"
	"testing"
)

// TestMissRatioPct pins the documented contract: the ratio is over demand
// reads only — writes never shift it — and the zero-read snapshot reports
// 0, not NaN.
func TestMissRatioPct(t *testing.T) {
	cases := []struct {
		name string
		snap Snapshot
		want float64
	}{
		{"zero reads", Snapshot{}, 0},
		{"zero reads with writes", Snapshot{Counters: Counters{Writes: 900}}, 0},
		{"all hits", Snapshot{Counters: Counters{Reads: 250, ReadHits: 250}}, 0},
		{"all misses", Snapshot{Counters: Counters{Reads: 64, ReadHits: 0}}, 100},
		{"half", Snapshot{Counters: Counters{Reads: 10, ReadHits: 5}}, 50},
		{"writes excluded", Snapshot{Counters: Counters{Reads: 10, ReadHits: 5, Writes: 1000}}, 50},
		{"single read hit", Snapshot{Counters: Counters{Reads: 1, ReadHits: 1}}, 0},
		{"single read miss", Snapshot{Counters: Counters{Reads: 1}}, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.snap.MissRatioPct()
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("MissRatioPct(%+v) = %v, want finite", c.snap, got)
			}
			if got != c.want {
				t.Errorf("MissRatioPct(%+v) = %v, want %v", c.snap, got, c.want)
			}
		})
	}
}
