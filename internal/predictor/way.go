package predictor

import (
	"unisoncache/internal/mem"
	"unisoncache/internal/stats"
)

// WayStats aggregates way-predictor quality (the "WP Accuracy" rows of
// Table V). Accuracy is measured over accesses to pages actually present in
// the cache — mispredicting the way of an absent page costs nothing extra,
// since the overlapped tag read detects the miss either way.
type WayStats struct {
	Accuracy stats.Ratio
}

// Reset zeroes the statistics.
func (s *WayStats) Reset() { *s = WayStats{} }

// WayPredictor is Unison Cache's way predictor (§III-A.6): an array of
// 2-bit entries directly indexed by the 12-bit XOR hash of the page
// address (16-bit hash for caches above 4 GB), 1 KB / 16 KB of SRAM. It
// works at page granularity, which is why its accuracy (~95%) far exceeds
// block-grain address-based way prediction (~85%): abundant spatial
// locality makes consecutive accesses land on the same page.
type WayPredictor struct {
	table    []uint8
	hashBits uint
	wayMask  uint8
	stats    WayStats
}

// NewWayPredictor builds a predictor indexed by hashBits bits of XOR-folded
// page address, for a cache of the given associativity (ways must be a
// power of two ≤ 256; the design uses 4).
func NewWayPredictor(hashBits uint, ways int) *WayPredictor {
	if hashBits == 0 || hashBits > 24 {
		panic("predictor: way predictor hash bits must be in [1,24]")
	}
	if ways <= 0 || ways > 256 || ways&(ways-1) != 0 {
		panic("predictor: ways must be a power of two in [1,256]")
	}
	return &WayPredictor{
		table:    make([]uint8, 1<<hashBits),
		hashBits: hashBits,
		wayMask:  uint8(ways - 1),
	}
}

// HashBitsFor returns the paper's sizing rule: 12-bit hash (1 KB at 2 bits
// per entry) up to 4 GB, 16-bit (16 KB) above.
func HashBitsFor(cacheBytes uint64) uint {
	if cacheBytes > 4<<30 {
		return 16
	}
	return 12
}

// Predict returns the predicted way for the page.
func (p *WayPredictor) Predict(page uint64) int {
	return int(p.table[mem.XORFoldHash(page, p.hashBits)] & p.wayMask)
}

// Update trains the predictor with the page's true way.
func (p *WayPredictor) Update(page uint64, way int) {
	p.table[mem.XORFoldHash(page, p.hashBits)] = uint8(way) & p.wayMask
}

// Record notes a prediction outcome for Table V accounting.
func (p *WayPredictor) Record(correct bool) { p.stats.Accuracy.Add(correct) }

// Stats returns the accumulated accuracy.
func (p *WayPredictor) Stats() *WayStats { return &p.stats }

// ResetStats zeroes accuracy without forgetting learned ways.
func (p *WayPredictor) ResetStats() { p.stats.Reset() }

// SizeBytes reports the SRAM cost: 2 bits per entry.
func (p *WayPredictor) SizeBytes() int { return len(p.table) / 4 }
