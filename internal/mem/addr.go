// Package mem provides the address arithmetic shared by every component of
// the simulator: block/page geometry, the access record exchanged between
// pipeline stages, and the residue-arithmetic unit that Unison Cache uses to
// divide physical addresses by non-power-of-two page sizes (paper §III-A.7).
package mem

// Fundamental geometry constants shared across the memory hierarchy
// (Table III of the paper).
const (
	// BlockBits is log2 of the cache block size.
	BlockBits = 6
	// BlockSize is the cache block (line) size in bytes used at every
	// level of the hierarchy.
	BlockSize = 1 << BlockBits
	// RowBytes is the DRAM row-buffer size for both the stacked and the
	// off-chip parts (8 KB per Table III).
	RowBytes = 8 * 1024
	// RowBlocks is the number of 64 B blocks a DRAM row can hold if no
	// space is reserved for metadata.
	RowBlocks = RowBytes / BlockSize
)

// Addr is a physical byte address.
type Addr uint64

// Block returns the block number (address / 64).
func (a Addr) Block() uint64 { return uint64(a) >> BlockBits }

// BlockAddr converts a block number back to the byte address of its first
// byte.
func BlockAddr(block uint64) Addr { return Addr(block << BlockBits) }

// Access is a single memory reference as produced by the workload generator
// and consumed by the cache hierarchy.
type Access struct {
	// Addr is the physical byte address referenced.
	Addr Addr
	// PC identifies the instruction performing the access; the footprint
	// and miss predictors key on it.
	PC uint64
	// Core is the index of the issuing core.
	Core uint8
	// Write is true for stores.
	Write bool
}

// BlockOfPage returns the index of the block containing a within a page of
// pageBlocks 64-byte blocks, along with the page number. pageBlocks need not
// be a power of two; callers on hot paths with pageBlocks of the form 2^n-1
// should use a Divider instead.
func BlockOfPage(a Addr, pageBlocks uint64) (page, block uint64) {
	b := a.Block()
	return b / pageBlocks, b % pageBlocks
}
