package mem

import "fmt"

// PageGeometry captures how a page-based DRAM cache carves a DRAM row into
// sets, ways, data blocks and embedded metadata. It is pure arithmetic —
// the structures in internal/core and internal/dramcache are built from it,
// and cmd/experiments prints Table II from it.
type PageGeometry struct {
	// PageBlocks is the number of 64 B data blocks per page (15 for 960 B
	// pages, 31 for 1984 B, 32 for Footprint Cache's 2 KB pages).
	PageBlocks int
	// Ways is the set associativity.
	Ways int
	// SetsPerRow is how many complete sets fit in one 8 KB DRAM row.
	SetsPerRow int
	// MetadataBytesPerSet is the in-row metadata footprint of one set
	// (page tags, valid/dirty bit vectors, LRU bits, PC+offset pairs).
	MetadataBytesPerSet int
}

// PageBytes returns the data capacity of one page.
func (g PageGeometry) PageBytes() int { return g.PageBlocks * BlockSize }

// DataBlocksPerRow returns the number of 64 B data blocks stored in one
// DRAM row (the "64B Blocks per 8KB Row" line of Table II).
func (g PageGeometry) DataBlocksPerRow() int {
	return g.PageBlocks * g.Ways * g.SetsPerRow
}

// RowUtilization returns the fraction of an 8 KB row holding data blocks.
func (g PageGeometry) RowUtilization() float64 {
	return float64(g.DataBlocksPerRow()*BlockSize) / float64(RowBytes)
}

// MetadataFraction returns the fraction of the stacked DRAM spent on
// embedded tags/metadata (the "In-DRAM Tag Size" line of Table II).
func (g PageGeometry) MetadataFraction() float64 {
	return 1 - g.RowUtilization()
}

// Validate checks that the layout actually fits in a DRAM row.
func (g PageGeometry) Validate() error {
	used := g.SetsPerRow * (g.Ways*g.PageBytes() + g.MetadataBytesPerSet)
	if used > RowBytes {
		return fmt.Errorf("mem: geometry overflows row: %d bytes in a %d byte row", used, RowBytes)
	}
	if g.PageBlocks <= 0 || g.Ways <= 0 || g.SetsPerRow <= 0 {
		return fmt.Errorf("mem: geometry fields must be positive: %+v", g)
	}
	return nil
}

// UnisonGeometry returns the row layout of the paper's Figure 3 for the
// given page size and associativity.
//
// Per-page metadata (paper §III-A.6 and Figure 2/3): a page tag with valid
// bit (~4 B), a valid bit vector and a dirty bit vector (PageBlocks bits
// each), the triggering PC+offset pair (~4 B compressed), plus shared LRU
// bits per set. For 960 B pages with 4 ways this comes to 32 B of
// presence-critical metadata per set — two bursts on the 128-bit TSV bus,
// i.e. the two CPU cycles of tag-read overhead the paper quotes — plus a
// second metadata region holding the PC+offset pairs read only on eviction.
func UnisonGeometry(pageBlocks, ways int) PageGeometry {
	// Presence metadata (tags + bit vectors) and eviction metadata
	// (PC+offset, LRU) per set, rounded to an 8 B DRAM word per page as
	// in Figure 2.
	meta := ways*16 + 8 // 16 B per way (tag + V/D vectors + PC/offset), 8 B LRU/padding
	g := PageGeometry{PageBlocks: pageBlocks, Ways: ways, SetsPerRow: 1, MetadataBytesPerSet: meta}
	// Pack as many complete sets into the row as fit.
	for fits := 2; ; fits++ {
		trial := g
		trial.SetsPerRow = fits
		if trial.Validate() != nil {
			break
		}
		g = trial
	}
	return g
}

// AlloyGeometry returns the Alloy Cache layout: 72 B tag-and-data units
// (TADs), 112 per 8 KB row (Table II).
func AlloyGeometry() PageGeometry {
	return PageGeometry{PageBlocks: 1, Ways: 1, SetsPerRow: RowBytes / 72, MetadataBytesPerSet: 8}
}

// SRAMTagBytes estimates the SRAM tag array size for a page-based cache of
// the given capacity with off-DRAM tags (the scaling argument of §II-B and
// Table IV). Per-page cost covers tag, valid/dirty vectors, footprint
// metadata and replacement state.
func SRAMTagBytes(cacheBytes uint64, pageBytes, bytesPerPageTag int) uint64 {
	pages := cacheBytes / uint64(pageBytes)
	return pages * uint64(bytesPerPageTag)
}
