// Package predictor implements the four prediction structures the evaluated
// DRAM cache designs rely on (paper Table II):
//
//   - the footprint predictor of Footprint/Unison Cache — a (PC, offset)
//     indexed history table mapping trigger accesses to page footprints
//     (§III-A.1–3);
//   - the singleton table that suppresses page allocation for
//     single-block footprints (§III-A.4);
//   - Unison Cache's address-hash way predictor (§III-A.6);
//   - Alloy Cache's instruction-indexed MAP-I hit/miss predictor.
//
// All tables are deterministic and sized to the SRAM budgets of Table II.
package predictor

import (
	"unisoncache/internal/mem"
	"unisoncache/internal/stats"
)

// Footprint is a bit vector over the blocks of a page; bit i set means
// block i belongs to the page's footprint. Pages have at most 32 blocks
// (2 KB pages of 64 B blocks), so 32 bits suffice for every design.
type Footprint = uint32

// FootprintStats aggregates the predictor quality metrics of Table V,
// measured at page eviction time exactly as the paper defines them:
// accuracy is the fraction of a page's actual footprint that was correctly
// predicted (and fetched); overfetch is the fraction of fetched blocks that
// were never demanded before eviction.
type FootprintStats struct {
	// Accuracy accumulates |predicted ∩ actual| / |actual| per eviction.
	Accuracy stats.Ratio
	// Overfetch accumulates |predicted \ actual| / |predicted|.
	Overfetch stats.Ratio
}

// FootprintPredictor is the SRAM footprint history table: entries tagged by
// a hash of the triggering (PC, offset) pair, each holding the last
// observed footprint for that trigger. FootprintEntries (16384) entries ≈
// 144 KB per Table II, at the 9 B of tag, valid bit and footprint per entry
// that SizeBytes counts.
type FootprintPredictor struct {
	entries []fpEntry
	mask    uint64
	// pageBlocks is the footprint width; predictions are masked to it.
	pageBlocks int
	stats      FootprintStats
}

type fpEntry struct {
	tag   uint32
	fp    Footprint
	valid bool
}

// FootprintEntries is the footprint history table size both page-based
// designs, Unison Cache and Footprint Cache, use: 16 K entries.
const FootprintEntries = 16384

// NewFootprintPredictor creates a table with the given number of entries
// (rounded up to a power of two) for pages of pageBlocks blocks.
func NewFootprintPredictor(entries int, pageBlocks int) *FootprintPredictor {
	if pageBlocks <= 0 || pageBlocks > 32 {
		panic("predictor: pageBlocks must be in [1,32]")
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &FootprintPredictor{
		entries:    make([]fpEntry, n),
		mask:       uint64(n - 1),
		pageBlocks: pageBlocks,
	}
}

// index hashes a (PC, offset) trigger into the table.
func (p *FootprintPredictor) index(pc uint64, offset int) (idx uint64, tag uint32) {
	h := mem.Mix64(pc*37 + uint64(offset))
	return h & p.mask, uint32(h >> 40)
}

// fullMask returns the all-blocks footprint for the configured page size.
func (p *FootprintPredictor) fullMask() Footprint {
	if p.pageBlocks == 32 {
		return ^Footprint(0)
	}
	return Footprint(1)<<p.pageBlocks - 1
}

// Predict returns the footprint to fetch for a page whose trigger access is
// (pc, offset). Cold or aliased entries fall back to fetching the whole
// page — the optimistic default the Footprint Cache study uses, which the
// predictor then trims as footprints are learned. The trigger block is
// always included.
func (p *FootprintPredictor) Predict(pc uint64, offset int) Footprint {
	idx, tag := p.index(pc, offset)
	e := p.entries[idx]
	trigger := Footprint(1) << offset
	if !e.valid || e.tag != tag {
		return p.fullMask() | trigger
	}
	return (e.fp | trigger) & p.fullMask()
}

// Update records the actual footprint observed at a page's eviction for the
// trigger that allocated it.
func (p *FootprintPredictor) Update(pc uint64, offset int, actual Footprint) {
	idx, tag := p.index(pc, offset)
	p.entries[idx] = fpEntry{tag: tag, fp: actual & p.fullMask(), valid: true}
}

// RecordEviction feeds the Table V accounting with the predicted-vs-actual
// footprints of an evicted page and trains the table.
func (p *FootprintPredictor) RecordEviction(pc uint64, offset int, predicted, actual Footprint) {
	actual &= p.fullMask()
	predicted &= p.fullMask()
	na := mem.PopCount32(actual)
	np := mem.PopCount32(predicted)
	if na > 0 {
		p.stats.Accuracy.AddN(uint64(mem.PopCount32(predicted&actual)), uint64(na))
	}
	if np > 0 {
		p.stats.Overfetch.AddN(uint64(mem.PopCount32(predicted&^actual)), uint64(np))
	}
	p.Update(pc, offset, actual)
}

// Stats returns the accumulated quality metrics.
func (p *FootprintPredictor) Stats() *FootprintStats { return &p.stats }

// ResetStats zeroes the metrics without forgetting learned footprints.
func (p *FootprintPredictor) ResetStats() { p.stats = FootprintStats{} }

// SizeBytes reports the SRAM cost of the table (36 bits tag+valid, 32 bits
// footprint, rounded to 9 bytes per entry — ~144 KB at 16 K entries,
// matching Table II's "Footprint History Table 144KB" with the paper's
// entry count).
func (p *FootprintPredictor) SizeBytes() int { return len(p.entries) * 9 }
