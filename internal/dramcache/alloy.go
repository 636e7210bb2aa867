package dramcache

import (
	"fmt"

	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

// TADsPerRow is the number of 72 B tag-and-data units per 8 KB DRAM row
// (Table II: "64B Blocks per 8KB Row — 112" for Alloy Cache).
const TADsPerRow = 112

// tadBytes is the size of one streamed tag-and-data unit: a 64 B block
// alloyed with its 8 B tag.
const tadBytes = 72

// Alloy implements the Alloy Cache of Qureshi & Loh [24]: a direct-mapped,
// block-based stacked-DRAM cache that merges each data block with its tag
// into a single TAD streamed in one DRAM access, plus the MAP-I miss
// predictor that moves the DRAM tag probe off the miss path.
type Alloy struct {
	stacked *dram.Controller
	offchip *dram.Controller
	mp      *predictor.MissPredictor

	// tads packs (blockNumber << 2 | state) per direct-mapped slot.
	tads    []uint64
	numTADs uint64

	st Counters
}

const (
	tadInvalid uint64 = iota
	tadClean
	tadDirty
)

// NewAlloy builds an Alloy Cache with the given data capacity over the two
// DRAM parts. cores sizes the per-core miss-predictor tables.
func NewAlloy(capacityBytes uint64, cores int, stacked, offchip *dram.Controller) (*Alloy, error) {
	rows := capacityBytes / mem.RowBytes
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: alloy capacity %d smaller than one row", capacityBytes)
	}
	return &Alloy{
		stacked: stacked,
		offchip: offchip,
		mp:      predictor.NewMissPredictor(cores, 256),
		tads:    make([]uint64, rows*TADsPerRow),
		numTADs: rows * TADsPerRow,
	}, nil
}

// Name implements Design.
func (d *Alloy) Name() string { return "alloy" }

// MissPredictor exposes the MAP-I predictor for Table V reporting.
func (d *Alloy) MissPredictor() *predictor.MissPredictor { return d.mp }

// slot returns the direct-mapped TAD index for a block number.
func (d *Alloy) slot(block uint64) uint64 { return block % d.numTADs }

// rowOf maps a TAD slot to its stacked-DRAM location.
func (d *Alloy) rowOf(slot uint64) (ch, bank int, row uint64) {
	return d.stacked.MapAddr(slot / TADsPerRow * mem.RowBytes)
}

// readTAD streams the 72 B TAD for slot starting at cycle at.
func (d *Alloy) readTAD(slot uint64, at uint64) dram.Result {
	ch, bank, row := d.rowOf(slot)
	return d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: tadBytes, At: at})
}

// writeTAD writes the 72 B TAD for slot starting at cycle at.
func (d *Alloy) writeTAD(slot uint64, at uint64) dram.Result {
	ch, bank, row := d.rowOf(slot)
	return d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: tadBytes, Write: true, At: at})
}

// Access implements Design.
func (d *Alloy) Access(r Request) Response {
	block := r.Addr.Block()
	slot := d.slot(block)
	entry := d.tads[slot]
	present := entry>>2 == block && entry&3 != tadInvalid

	if r.Write {
		return d.write(r, block, slot, present)
	}
	d.st.Reads++

	predMiss := d.mp.PredictMiss(r.Core, r.PC)
	probeAt := r.At + d.mp.Latency()
	tad := d.readTAD(slot, probeAt)

	if present {
		d.st.ReadHits++
		d.mp.Update(r.Core, r.PC, predMiss, false)
		if predMiss {
			// False miss: the off-chip fetch was already launched in
			// parallel and its data is discarded — pure wasted traffic
			// and bandwidth occupancy (§II-A).
			d.offchip.Access(uint64(r.Addr), probeAt, mem.BlockSize, false)
			d.st.OffchipReadBytes += mem.BlockSize
		}
		return Response{DoneAt: tad.Done, Hit: true}
	}

	// Miss path: a correctly predicted miss overlaps the off-chip fetch
	// with the (verification) probe; a mispredicted one serializes behind
	// the probe (§II-A).
	d.mp.Update(r.Core, r.PC, predMiss, true)
	d.st.TriggerMisses++
	launchAt := tad.Done
	if predMiss {
		launchAt = probeAt
	}
	off := d.offchip.Access(uint64(r.Addr), launchAt, mem.BlockSize, false)
	d.st.OffchipReadBytes += mem.BlockSize
	// The fill is charged at the demand timestamp; see Footprint.Access
	// for why future-dated background reservations would be wrong.
	d.fill(block, slot, probeAt, false)
	return Response{DoneAt: off.Done, Hit: false}
}

// write absorbs an L2 dirty writeback. The full block arrives with the
// request, so allocation needs no off-chip fetch; a conflicting dirty
// victim is written back.
func (d *Alloy) write(r Request, block, slot uint64, present bool) Response {
	d.st.Writes++
	res := d.writeTAD(slot, r.At)
	if !present {
		d.fill(block, slot, r.At, true)
	} else {
		d.tads[slot] = block<<2 | tadDirty
	}
	return Response{DoneAt: res.Done, Hit: present}
}

// fill installs block into slot at cycle at (off the critical path),
// evicting and writing back any dirty conflicting TAD.
func (d *Alloy) fill(block, slot uint64, at uint64, dirty bool) {
	if old := d.tads[slot]; old&3 == tadDirty {
		victim := old >> 2
		d.offchip.Access(uint64(mem.BlockAddr(victim)), at, mem.BlockSize, true)
		d.st.OffchipWriteBytes += mem.BlockSize
	}
	state := tadClean
	if dirty {
		state = tadDirty
	}
	d.tads[slot] = block<<2 | state
	if !dirty {
		// The demand fill writes the TAD into the stacked row.
		d.writeTAD(slot, at)
	}
}

// Contains reports (for tests) whether the block is cached.
func (d *Alloy) Contains(block uint64) bool {
	e := d.tads[d.slot(block)]
	return e>>2 == block && e&3 != tadInvalid
}

// AccessBatch implements Design via the serial adapter.
func (d *Alloy) AccessBatch(reqs []Request, resps []Response) { SerialAccess(d, reqs, resps) }

// Snapshot implements Design.
func (d *Alloy) Snapshot() Snapshot {
	s := Snapshot{Name: d.Name(), Counters: d.st}
	mps := d.mp.Stats()
	acc := mps.Accuracy
	s.MP = &acc
	s.MPOverfetchPct = mps.OverfetchPercent()
	return s
}

// ResetStats implements Design.
func (d *Alloy) ResetStats() {
	d.st = Counters{}
	d.mp.ResetStats()
}
