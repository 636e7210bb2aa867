package predictor

import "unisoncache/internal/mem"

// SingletonTable tracks pages that were predicted to be singletons and thus
// bypassed allocation (§III-A.4). Because bypassed pages are never evicted,
// the footprint predictor would have no chance to correct a wrong singleton
// prediction; this small table watches recently bypassed pages and detects
// a second block being demanded, at which point the page is promoted to
// non-singleton and the caller re-trains the footprint predictor. 256
// entries ≈ 3 KB per Table II.
type SingletonTable struct {
	entries []singletonEntry
	mask    uint64

	// Promotions counts singleton→non-singleton corrections.
	Promotions uint64
	// Bypasses counts pages that entered the table.
	Bypasses uint64
}

type singletonEntry struct {
	page   uint64 // page number (full, for exactness; hardware would tag)
	pc     uint64
	offset int8
	valid  bool
}

// SingletonEntries is the singleton table size both page-based designs
// use: 256 entries ≈ 3 KB (Table II).
const SingletonEntries = 256

// NewSingletonTable creates a table with the given entry count (rounded up
// to a power of two).
func NewSingletonTable(entries int) *SingletonTable {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &SingletonTable{entries: make([]singletonEntry, n), mask: uint64(n - 1)}
}

func (t *SingletonTable) index(page uint64) uint64 {
	return mem.Mix64(page) & t.mask
}

// Insert records that page was bypassed as a predicted singleton triggered
// by (pc, offset).
func (t *SingletonTable) Insert(page, pc uint64, offset int) {
	t.Bypasses++
	t.entries[t.index(page)] = singletonEntry{page: page, pc: pc, offset: int8(offset), valid: true}
}

// Check looks the page up; if present it is removed and its triggering
// (pc, offset) returned with ok=true. Callers invoke Check when a miss hits
// a page absent from the cache: a hit here means the page was recently
// bypassed as a singleton and a second block is now being demanded.
func (t *SingletonTable) Check(page uint64) (pc uint64, offset int, ok bool) {
	i := t.index(page)
	e := t.entries[i]
	if !e.valid || e.page != page {
		return 0, 0, false
	}
	t.entries[i].valid = false
	t.Promotions++
	return e.pc, int(e.offset), true
}

// ResetStats zeroes the counters but keeps tracked pages.
func (t *SingletonTable) ResetStats() {
	t.Promotions = 0
	t.Bypasses = 0
}

// SizeBytes reports the SRAM cost (12 bytes of tag+PC+offset per entry;
// 256 entries ≈ 3 KB per Table II).
func (t *SingletonTable) SizeBytes() int { return len(t.entries) * 12 }
