package dramcache

import (
	"fmt"

	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
)

// LHWays is the associativity of the Loh-Hill organization: an 8 KB DRAM
// row holds a 29-way set (28 usable data ways after ECC in the original;
// we model 28) plus three 64 B tag blocks at the head of the row.
const (
	LHWays      = 28
	lhTagBlocks = 3
)

// LohHill implements the block-based design of Loh & Hill [20] that the
// paper's §II-A discusses as Alloy Cache's predecessor: each DRAM row is
// one highly-associative set with its tags colocated in the same row. A
// lookup reads the tag blocks first and then the hit way — serialized, but
// scheduled so the data access hits the open row. An on-chip "MissMap"
// tracks block presence so misses skip the in-DRAM tag lookup entirely; its
// cost is an SRAM lookup on every access, hit or miss, and a capacity that
// does not scale (the multi-MB structure the paper calls out).
type LohHill struct {
	stacked *dram.Controller
	offchip *dram.Controller
	table   *PageTable // one "page" per way with a single block: tags only
	// missMapLatency is charged on every access (§II-A: the MissMap adds
	// to the cache lookup path).
	missMapLatency uint64

	st Counters
}

// NewLohHill builds the design with the given data capacity.
func NewLohHill(capacityBytes uint64, stacked, offchip *dram.Controller) (*LohHill, error) {
	rows := capacityBytes / mem.RowBytes
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: loh-hill capacity %d below one row", capacityBytes)
	}
	table, err := NewPageTable(rows, LHWays)
	if err != nil {
		return nil, err
	}
	return &LohHill{
		stacked:        stacked,
		offchip:        offchip,
		table:          table,
		missMapLatency: 20, // multi-MB SRAM MissMap lookup
	}, nil
}

// Name implements Design.
func (d *LohHill) Name() string { return "lohhill" }

// rowOf maps a set to its stacked row (one set per row).
func (d *LohHill) rowOf(set uint64) (ch, bank int, row uint64) {
	return d.stacked.MapAddr(set * mem.RowBytes)
}

// Access implements Design.
func (d *LohHill) Access(r Request) Response {
	block := r.Addr.Block()
	set := d.table.SetOf(block)
	// Every access consults the MissMap first.
	t0 := r.At + d.missMapLatency

	way, present := d.table.Lookup(set, block)
	ch, bank, row := d.rowOf(set)

	if r.Write {
		d.st.Writes++
		if present {
			p := d.table.Page(set, way)
			p.Dirty = 1
			d.table.Promote(set, way)
			res := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: t0})
			return Response{DoneAt: res.Done, Hit: true}
		}
		d.install(set, block, t0, true)
		res := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: t0})
		return Response{DoneAt: res.Done, Hit: false}
	}

	d.st.Reads++
	if present {
		d.st.ReadHits++
		d.table.Promote(set, way)
		// Serialized tag-then-data: the tag blocks stream first, then the
		// matching way is read from the now-open row (the row-buffer-hit
		// scheduling optimization of [20]).
		tags := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: lhTagBlocks * mem.BlockSize, At: t0})
		data := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, At: tags.Done})
		return Response{DoneAt: data.Done, Hit: true}
	}

	// MissMap says absent: go straight off-chip, no DRAM tag lookup.
	off := d.offchip.Access(uint64(r.Addr), t0, mem.BlockSize, false)
	d.st.OffchipReadBytes += mem.BlockSize
	d.st.TriggerMisses++
	d.install(set, block, t0, false)
	// The fill writes tag blocks + data into the row (background,
	// charged at the demand timestamp like every other design's fills).
	d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: (lhTagBlocks + 1) * mem.BlockSize, Write: true, At: t0})
	return Response{DoneAt: off.Done, Hit: false}
}

// AccessBatch implements Design via the serial adapter.
func (d *LohHill) AccessBatch(reqs []Request, resps []Response) { SerialAccess(d, reqs, resps) }

// install places block into its set, writing back a dirty LRU victim.
func (d *LohHill) install(set, block uint64, at uint64, dirty bool) {
	way := d.table.Victim(set)
	p := d.table.Page(set, way)
	if p.Valid && p.Dirty != 0 {
		d.offchip.Access(uint64(mem.BlockAddr(p.Tag)), at, mem.BlockSize, true)
		d.st.OffchipWriteBytes += mem.BlockSize
	}
	*p = PageState{Tag: block, Valid: true}
	if dirty {
		p.Dirty = 1
	}
	d.table.Promote(set, way)
}

// Contains reports (for tests) whether the block is cached.
func (d *LohHill) Contains(block uint64) bool {
	_, ok := d.table.Lookup(d.table.SetOf(block), block)
	return ok
}

// Snapshot implements Design.
func (d *LohHill) Snapshot() Snapshot { return Snapshot{Name: d.Name(), Counters: d.st} }

// ResetStats implements Design.
func (d *LohHill) ResetStats() { d.st = Counters{} }
