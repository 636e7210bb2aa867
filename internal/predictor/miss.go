package predictor

import (
	"unisoncache/internal/mem"
	"unisoncache/internal/stats"
)

// MissStats aggregates miss-predictor quality (the "MP" rows of Table V).
type MissStats struct {
	// Accuracy is the fraction of actual misses correctly predicted as
	// misses — the paper's MP accuracy metric.
	Accuracy stats.Ratio
	// FalseMiss counts hits wrongly predicted as misses; each one sends an
	// unnecessary fetch off-chip (the "MP Overfetch" numerator).
	FalseMiss uint64
	// SlowMiss counts misses wrongly predicted as hits; each one pays the
	// DRAM-cache tag lookup before the off-chip request is issued.
	SlowMiss uint64
	// Hits and Misses count the actual outcomes observed.
	Hits, Misses uint64
}

// Reset zeroes the statistics.
func (s *MissStats) Reset() { *s = MissStats{} }

// OverfetchPercent returns unnecessary off-chip fetches as a percentage of
// all off-chip demand fetches (misses + false misses), the extra-traffic
// metric of Table V.
func (s MissStats) OverfetchPercent() float64 {
	den := s.Misses + s.FalseMiss
	if den == 0 {
		return 0
	}
	return 100 * float64(s.FalseMiss) / float64(den)
}

// MissPredictor is Alloy Cache's MAP-I (Memory Access Predictor,
// Instruction-based): per-core tables of 3-bit saturating counters indexed
// by a hash of the miss-causing instruction's PC. 256 entries per core at 3
// bits ≈ 96 B per core, 1.5 KB for 16 cores (Table II). Prediction takes a
// single cycle and is consulted before the DRAM cache is probed.
type MissPredictor struct {
	tables  [][]uint8 // per core
	mask    uint64
	stats   MissStats
	latency uint64
}

// NewMissPredictor builds per-core tables with entriesPerCore counters
// (rounded up to a power of two).
func NewMissPredictor(cores, entriesPerCore int) *MissPredictor {
	n := 1
	for n < entriesPerCore {
		n <<= 1
	}
	t := make([][]uint8, cores)
	for i := range t {
		// Initialize weakly toward "miss": an empty cache misses, and the
		// paper's predictor bypasses lookups from the start.
		row := make([]uint8, n)
		for j := range row {
			row[j] = 4
		}
		t[i] = row
	}
	return &MissPredictor{tables: t, mask: uint64(n - 1), latency: 1}
}

// Latency returns the prediction latency in CPU cycles (1, per §IV-C.3).
func (p *MissPredictor) Latency() uint64 { return p.latency }

func (p *MissPredictor) index(pc uint64) uint64 { return mem.Mix64(pc) & p.mask }

// PredictMiss returns true if the access by pc on core is predicted to miss
// the DRAM cache.
func (p *MissPredictor) PredictMiss(core int, pc uint64) bool {
	return p.tables[core][p.index(pc)] >= 4
}

// Update trains the counter with the actual outcome and records Table V
// accounting for the prediction that was made.
func (p *MissPredictor) Update(core int, pc uint64, predictedMiss, actualMiss bool) {
	i := p.index(pc)
	c := p.tables[core][i]
	if actualMiss {
		if c < 7 {
			c++
		}
		p.stats.Misses++
		p.stats.Accuracy.Add(predictedMiss)
		if !predictedMiss {
			p.stats.SlowMiss++
		}
	} else {
		if c > 0 {
			c--
		}
		p.stats.Hits++
		if predictedMiss {
			p.stats.FalseMiss++
		}
	}
	p.tables[core][i] = c
}

// Stats returns the accumulated quality metrics.
func (p *MissPredictor) Stats() *MissStats { return &p.stats }

// ResetStats zeroes metrics without forgetting counter state.
func (p *MissPredictor) ResetStats() { p.stats.Reset() }

// SizeBytes reports the SRAM cost: 3 bits per counter.
func (p *MissPredictor) SizeBytes() int {
	if len(p.tables) == 0 {
		return 0
	}
	return len(p.tables) * len(p.tables[0]) * 3 / 8
}
