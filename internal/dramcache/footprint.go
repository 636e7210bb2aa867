package dramcache

import (
	"fmt"

	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

// FCPageBlocks is Footprint Cache's page size in blocks: 2 KB pages, the
// accuracy/tag-overhead sweet spot the FC study found (§IV-C.2).
const FCPageBlocks = 32

// Footprint implements the Footprint Cache of Jevdjic, Volos & Falsafi
// [10]: a page-based stacked-DRAM cache with an SRAM tag array, 32-way
// associativity, and footprint prediction so only the blocks a page visit
// will demand are fetched. Its defining scalability problem — the SRAM tag
// array growing to tens of MBs (Table IV) — appears here as the
// size-dependent tagLatency added to every hit and miss.
type Footprint struct {
	stacked *dram.Controller
	offchip *dram.Controller
	fp      *predictor.FootprintPredictor
	single  *predictor.SingletonTable
	table   *PageTable

	tagLatency uint64
	st         Counters
}

// FCConfig parameterizes NewFootprint.
type FCConfig struct {
	CapacityBytes uint64
	Ways          int
	// TagLatency is the SRAM tag-array lookup latency in CPU cycles
	// (Table IV; grows with capacity).
	TagLatency uint64
}

// NewFootprint builds a Footprint Cache over the two DRAM parts.
func NewFootprint(cfg FCConfig, stacked, offchip *dram.Controller) (*Footprint, error) {
	if cfg.Ways <= 0 {
		cfg.Ways = 32
	}
	pages := cfg.CapacityBytes / (FCPageBlocks * mem.BlockSize)
	if pages < uint64(cfg.Ways) {
		return nil, fmt.Errorf("dramcache: footprint capacity %d below one set", cfg.CapacityBytes)
	}
	table, err := NewPageTable(pages/uint64(cfg.Ways), cfg.Ways)
	if err != nil {
		return nil, err
	}
	return &Footprint{
		stacked:    stacked,
		offchip:    offchip,
		fp:         predictor.NewFootprintPredictor(predictor.FootprintEntries, FCPageBlocks),
		single:     predictor.NewSingletonTable(predictor.SingletonEntries),
		table:      table,
		tagLatency: cfg.TagLatency,
	}, nil
}

// Name implements Design.
func (d *Footprint) Name() string { return "footprint" }

// Predictor exposes the footprint predictor for Table V reporting.
func (d *Footprint) Predictor() *predictor.FootprintPredictor { return d.fp }

// Table exposes the page table for white-box tests.
func (d *Footprint) Table() *PageTable { return d.table }

// dataRow maps (set, way) to the stacked-DRAM row holding the page: four
// 2 KB pages per 8 KB row.
func (d *Footprint) dataRow(set uint64, way int) (ch, bank int, row uint64) {
	slot := set*uint64(d.table.Ways()) + uint64(way)
	return d.stacked.MapAddr(slot / 4 * mem.RowBytes)
}

// pageAddr returns the physical byte address of the page's first block.
func pageAddr(page uint64, pageBlocks int) mem.Addr {
	return mem.BlockAddr(page * uint64(pageBlocks))
}

// Access implements Design.
func (d *Footprint) Access(r Request) Response {
	block := r.Addr.Block()
	page := block / FCPageBlocks
	off := int(block % FCPageBlocks)
	bit := predictor.Footprint(1) << off
	set := d.table.SetOf(page)
	// Every path first pays the SRAM tag lookup (Table IV).
	t1 := r.At + d.tagLatency

	if way, ok := d.table.Lookup(set, page); ok {
		p := d.table.Page(set, way)
		if p.Fetched&bit != 0 {
			// Block present: a hit costs tag SRAM + one stacked read.
			p.Touched |= bit
			if r.Write {
				p.Dirty |= bit
				d.st.Writes++
			} else {
				d.st.Reads++
				d.st.ReadHits++
			}
			d.table.Promote(set, way)
			ch, bank, row := d.dataRow(set, way)
			res := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: r.Write, At: t1})
			return Response{DoneAt: res.Done, Hit: true}
		}
		// Underprediction: the page is resident but this block was not in
		// the predicted footprint (§III-A.3). Fetch just the block; the
		// eviction-time update will repair the footprint entry.
		p.Fetched |= bit
		p.Touched |= bit
		d.table.Promote(set, way)
		if r.Write {
			p.Dirty |= bit
			d.st.Writes++
			ch, bank, row := d.dataRow(set, way)
			res := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: t1})
			return Response{DoneAt: res.Done, Hit: false}
		}
		d.st.Reads++
		d.st.UnderpredMisses++
		res := d.offchip.Access(uint64(r.Addr), t1, mem.BlockSize, false)
		d.st.OffchipReadBytes += mem.BlockSize
		ch, bank, row := d.dataRow(set, way)
		// Background fill charged at the demand timestamp (the simulator
		// serves requests in processing order; a future-dated fill would
		// wrongly block demand reads a reordering controller puts first).
		d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: t1})
		return Response{DoneAt: res.Done, Hit: false}
	}

	// Page absent.
	if r.Write {
		// Dirty writeback to an evicted page: write through to memory
		// rather than allocating a page for a lone block.
		d.st.Writes++
		res := d.offchip.Access(uint64(r.Addr), t1, mem.BlockSize, true)
		d.st.OffchipWriteBytes += mem.BlockSize
		return Response{DoneAt: res.Done, Hit: false}
	}
	d.st.Reads++
	d.st.TriggerMisses++
	return d.triggerMiss(r, page, off, set, t1)
}

// triggerMiss handles the first access to an uncached page: footprint
// prediction, singleton bypass, allocation, eviction learning.
func (d *Footprint) triggerMiss(r Request, page uint64, off int, set uint64, t1 uint64) Response {
	var predicted predictor.Footprint
	if pc0, off0, promoted := d.single.Check(page); promoted {
		// A bypassed singleton is being re-demanded: correct the history
		// entry so this trigger stops predicting a singleton, and
		// allocate with both blocks (§III-A.4).
		predicted = predictor.Footprint(1)<<off0 | predictor.Footprint(1)<<off
		d.fp.Update(pc0, off0, predicted)
	} else {
		predicted = d.fp.Predict(r.PC, off)
	}

	if mem.PopCount32(predicted) == 1 {
		// Predicted singleton: forward the block without allocating,
		// preserving effective capacity (§III-A.4).
		d.st.SingletonSkips++
		d.single.Insert(page, r.PC, off)
		res := d.offchip.Access(uint64(r.Addr), t1, mem.BlockSize, false)
		d.st.OffchipReadBytes += mem.BlockSize
		return Response{DoneAt: res.Done, Hit: false}
	}

	// Allocate: evict the LRU page, learning its footprint.
	way := d.table.Victim(set)
	p := d.table.Page(set, way)
	if p.Valid {
		d.evict(p, t1)
	}

	// Fetch the predicted footprint: critical block first, then the rest
	// of the footprint streamed from the same memory row.
	crit := d.offchip.Access(uint64(r.Addr), t1, mem.BlockSize, false)
	k := mem.PopCount32(predicted)
	d.st.OffchipReadBytes += uint64(k) * mem.BlockSize
	if k > 1 {
		d.offchip.Access(uint64(pageAddr(page, FCPageBlocks)), crit.DataAt, (k-1)*mem.BlockSize, false)
	}
	// Install and write the footprint into the stacked row (off the
	// critical path).
	*p = PageState{
		Tag:       page,
		Predicted: predicted,
		Fetched:   predicted,
		Touched:   predictor.Footprint(1) << off,
		PC:        r.PC,
		Off:       int8(off),
		Valid:     true,
	}
	d.table.Promote(set, way)
	ch, bank, row := d.dataRow(set, way)
	d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: k * mem.BlockSize, Write: true, At: t1})
	return Response{DoneAt: crit.Done, Hit: false}
}

// evict retires a page: trains the footprint predictor with the observed
// footprint and writes dirty blocks back to memory at footprint
// granularity (one row activation for the whole group, the §V-D energy
// advantage).
func (d *Footprint) evict(p *PageState, at uint64) {
	d.fp.RecordEviction(p.PC, int(p.Off), p.Predicted, p.Touched)
	if n := mem.PopCount32(p.Dirty); n > 0 {
		d.offchip.Access(uint64(pageAddr(p.Tag, FCPageBlocks)), at, n*mem.BlockSize, true)
		d.st.OffchipWriteBytes += uint64(n) * mem.BlockSize
	}
	p.Valid = false
}

// AccessBatch implements Design via the serial adapter.
func (d *Footprint) AccessBatch(reqs []Request, resps []Response) { SerialAccess(d, reqs, resps) }

// Snapshot implements Design.
func (d *Footprint) Snapshot() Snapshot {
	s := Snapshot{Name: d.Name(), Counters: d.st}
	fps := d.fp.Stats()
	acc, of := fps.Accuracy, fps.Overfetch
	s.FP = &acc
	s.FO = &of
	return s
}

// ResetStats implements Design.
func (d *Footprint) ResetStats() {
	d.st = Counters{}
	d.fp.ResetStats()
	d.single.ResetStats()
}
