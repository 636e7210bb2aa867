// Package core implements Unison Cache, the paper's contribution: a
// page-based die-stacked DRAM cache whose tags are embedded in the stacked
// DRAM itself (like Alloy Cache) while allocation, fetch and eviction work
// at page-footprint granularity (like Footprint Cache).
//
// The design's four pillars, all modelled here:
//
//  1. In-DRAM tags with overlapped access (§III-A.6): one tag per page at
//     the head of the DRAM row (Figure 3); the tag read and the data-block
//     read are issued back-to-back to the same row, so a hit costs a
//     single row activation plus a 2-CPU-cycle burst overhead for the 32 B
//     of set metadata — the same latency as Alloy Cache's TAD stream, but
//     for a page-based organization.
//  2. Footprint prediction (§III-A.1–3): pages are allocated whole but
//     only the predicted footprint is fetched; underpredictions fetch
//     single blocks; evictions train the predictor with the observed
//     valid/dirty vectors.
//  3. Singleton suppression (§III-A.4): predicted single-block pages
//     bypass allocation entirely, protecting effective capacity.
//  4. Set associativity via way prediction (§III-A.5–6): four ways per
//     set eliminate the page-conflict problem of direct-mapped page
//     caches; a 2-bit-entry, address-hash-indexed way predictor picks the
//     way to stream so neither latency nor bandwidth grows; mispredictions
//     re-read from the (open) row buffer.
//
// Addressing uses the residue-arithmetic divider of internal/mem because
// embedding tags makes the page size a non-power-of-two block count
// (§III-A.7): 15 blocks (960 B) or 31 blocks (1984 B).
package core

import (
	"fmt"
	"math/bits"

	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

// Config parameterizes a Unison Cache instance.
type Config struct {
	// CapacityBytes is the stacked-DRAM capacity dedicated to the cache
	// (data + embedded tags; the data capacity is what remains after the
	// row metadata of Figure 3).
	CapacityBytes uint64
	// LabelBytes is the nominal design-point capacity used to size the
	// way predictor's hash (§III-A.6: 12-bit up to 4 GB, 16-bit above).
	// Zero means CapacityBytes. It differs from CapacityBytes only under
	// the proportional-scaling methodology (see the facade's Run type).
	LabelBytes uint64
	// PageBlocks is the page size in 64 B blocks; must be 2^n - 1 so the
	// residue unit applies. The evaluated design points are 15 (960 B)
	// and 31 (1984 B).
	PageBlocks int
	// Ways is the set associativity: 1, 4 (the design point) or 32 (the
	// Figure 5 reference).
	Ways int
	// DisableWayPrediction forces the fetch-all-ways fallback the paper
	// argues against (§V-B ablation): every lookup streams every way.
	DisableWayPrediction bool
	// SerializeTagData forces tag-then-data serialization (the Loh-Hill
	// style lookup Unison's overlapping eliminates); ablation only.
	SerializeTagData bool
	// DisableSingleton turns off singleton bypass (ablation).
	DisableSingleton bool
}

// footprintLookupCycles is the SRAM latency of the footprint history table
// consulted on trigger misses (fixed, small, and off the hit path).
const footprintLookupCycles = 2

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.LabelBytes == 0 {
		c.LabelBytes = c.CapacityBytes
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.PageBlocks {
	case 15, 31:
	default:
		return fmt.Errorf("core: PageBlocks must be 15 or 31 (2^n-1 for the residue unit), got %d", c.PageBlocks)
	}
	switch c.Ways {
	case 1, 2, 4, 8, 16, 32:
	default:
		return fmt.Errorf("core: Ways must be a power of two in [1,32], got %d", c.Ways)
	}
	if c.CapacityBytes < mem.RowBytes {
		return fmt.Errorf("core: capacity %d below one DRAM row", c.CapacityBytes)
	}
	return nil
}

// Unison is the Unison Cache design. It implements dramcache.Design.
type Unison struct {
	cfg     Config
	stacked *dram.Controller
	offchip *dram.Controller

	fp     *predictor.FootprintPredictor
	single *predictor.SingletonTable
	wp     *predictor.WayPredictor

	table *dramcache.PageTable
	div   *mem.Divider
	geo   mem.PageGeometry

	// rowsPerSet / setsPerRow describe the Figure 3 packing; exactly one
	// of them is > 1 unless both are 1.
	setsPerRow uint64
	rowsPerSet uint64

	// tagBytes is the per-set presence metadata streamed on every lookup
	// (page tags + valid/dirty vectors for all ways).
	tagBytes int
	// tagBurstCPU is the stacked-bus burst time of tagBytes, precomputed
	// because Access needs it on every request.
	tagBurstCPU uint64
	// setShift is log2(setsPerRow) when that is a power of two (every
	// Table II geometry), letting rowOf shift instead of divide; -1
	// otherwise.
	setShift int

	st dramcache.Counters
}

// New builds a Unison Cache over the two DRAM parts.
func New(cfg Config, stacked, offchip *dram.Controller) (*Unison, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := mem.UnisonGeometry(cfg.PageBlocks, cfg.Ways)
	rows := cfg.CapacityBytes / mem.RowBytes
	var sets, setsPerRow, rowsPerSet uint64
	if err := geo.Validate(); err == nil && geo.SetsPerRow >= 1 {
		setsPerRow = uint64(geo.SetsPerRow)
		rowsPerSet = 1
		sets = rows * setsPerRow
	} else {
		// Wide sets (e.g. 32-way) span multiple rows; the Figure 5
		// reference point only.
		setBytes := cfg.Ways*geo.PageBytes() + geo.MetadataBytesPerSet
		rowsPerSet = uint64((setBytes + mem.RowBytes - 1) / mem.RowBytes)
		setsPerRow = 1
		sets = rows / rowsPerSet
	}
	if sets == 0 {
		return nil, fmt.Errorf("core: capacity %d yields zero sets", cfg.CapacityBytes)
	}
	table, err := dramcache.NewPageTable(sets, cfg.Ways)
	if err != nil {
		return nil, err
	}
	var n uint
	switch cfg.PageBlocks {
	case 15:
		n = 4
	case 31:
		n = 5
	}
	d := &Unison{
		cfg:        cfg,
		stacked:    stacked,
		offchip:    offchip,
		fp:         predictor.NewFootprintPredictor(predictor.FootprintEntries, cfg.PageBlocks),
		single:     predictor.NewSingletonTable(predictor.SingletonEntries),
		wp:         predictor.NewWayPredictor(predictor.HashBitsFor(cfg.LabelBytes), cfg.Ways),
		table:      table,
		div:        mem.NewDivider(n),
		geo:        geo,
		setsPerRow: setsPerRow,
		rowsPerSet: rowsPerSet,
		tagBytes:   cfg.Ways * 8,
		setShift:   -1,
	}
	d.tagBurstCPU = stacked.Config().BurstCPU(d.tagBytes)
	if rowsPerSet == 1 && setsPerRow&(setsPerRow-1) == 0 {
		d.setShift = bits.TrailingZeros64(setsPerRow)
	}
	return d, nil
}

// Name implements dramcache.Design.
func (d *Unison) Name() string { return "unison" }

// Geometry returns the row layout (for Table II reporting).
func (d *Unison) Geometry() mem.PageGeometry { return d.geo }

// Sets returns the set count.
func (d *Unison) Sets() uint64 { return d.table.Sets() }

// Predictors exposes the three prediction structures for Table V.
func (d *Unison) Predictors() (*predictor.FootprintPredictor, *predictor.WayPredictor, *predictor.SingletonTable) {
	return d.fp, d.wp, d.single
}

// Table exposes the page table for white-box tests.
func (d *Unison) Table() *dramcache.PageTable { return d.table }

// PageOf decomposes a byte address into (page number, block offset) using
// the residue-arithmetic unit.
func (d *Unison) PageOf(a mem.Addr) (page uint64, off int) {
	q, r := d.div.DivMod(a.Block())
	return q, int(r)
}

// rowOf maps a set index to its stacked-DRAM row location.
func (d *Unison) rowOf(set uint64) (ch, bank int, row uint64) {
	var linear uint64
	switch {
	case d.setShift >= 0:
		linear = set >> d.setShift
	case d.rowsPerSet > 1:
		linear = set * d.rowsPerSet
	default:
		linear = set / d.setsPerRow
	}
	return d.stacked.MapAddr(linear * mem.RowBytes)
}

// lookupBytes is the data streamed by the overlapped tag+data read: the
// set's presence metadata plus the predicted way's block. With 4 ways this
// is 32 B + 64 B — the 32 B of tags cost two bursts on the 128-bit TSV bus,
// i.e. the two CPU cycles of §III-A.6.
func (d *Unison) lookupBytes() int {
	if d.cfg.DisableWayPrediction {
		// Fetch-all-ways fallback: every way streams with the tags.
		return d.tagBytes + d.cfg.Ways*mem.BlockSize
	}
	return d.tagBytes + mem.BlockSize
}

// Access implements dramcache.Design.
func (d *Unison) Access(r dramcache.Request) dramcache.Response {
	page, off := d.PageOf(r.Addr)
	bit := predictor.Footprint(1) << off
	set := d.table.SetOf(page)
	ch, bank, row := d.rowOf(set)

	// The way prediction and the residue address mapping both happen
	// off the critical path (overlapped with the L2 access, §III-A.7),
	// so the request reaches the stacked DRAM at r.At.
	predWay := d.wp.Predict(page)

	// Overlapped tag + predicted-way data read: one row activation, one
	// combined burst.
	lookup := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: d.lookupBytes(), At: r.At})
	// The tags arrive at the head of the burst; a miss (or wrong way) is
	// known once the metadata bursts have arrived.
	tagKnown := lookup.DataAt + d.tagBurstCPU
	dataReady := lookup.Done
	if d.cfg.SerializeTagData {
		// Ablation: Loh-Hill-style serialization — data read issues only
		// after the tag read completes.
		second := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, At: tagKnown})
		dataReady = second.Done
	}

	way, present := d.table.Lookup(set, page)
	if present {
		return d.accessPresent(r, page, off, bit, set, way, predWay, tagKnown, dataReady, ch, bank, row)
	}

	// Page miss. The tag read has already told us no way matches, so the
	// off-chip path launches at tagKnown — the "DRAM Tag Lookup" miss
	// latency of Table II.
	if r.Write {
		// Dirty writeback whose page has been evicted: write through.
		d.st.Writes++
		res := d.offchip.Access(uint64(r.Addr), tagKnown, mem.BlockSize, true)
		d.st.OffchipWriteBytes += mem.BlockSize
		return dramcache.Response{DoneAt: res.Done, Hit: false}
	}
	d.st.Reads++
	d.st.TriggerMisses++
	return d.triggerMiss(r, page, off, set, tagKnown)
}

// accessPresent handles accesses to resident pages: hits, way
// mispredictions and underprediction block misses.
func (d *Unison) accessPresent(r dramcache.Request, page uint64, off int, bit predictor.Footprint, set uint64, way, predWay int, tagKnown, dataReady uint64, ch, bank int, row uint64) dramcache.Response {
	p := d.table.Page(set, way)
	d.table.Promote(set, way)

	wayCorrect := way == predWay
	if !d.cfg.DisableWayPrediction && !d.cfg.SerializeTagData {
		d.wp.Record(wayCorrect)
		d.wp.Update(page, way)
		if !wayCorrect {
			// Re-read the correct way. The row was just activated, so
			// this is a cheap row-buffer hit (§III-A.6).
			second := d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, At: tagKnown})
			dataReady = second.Done
		}
	}

	if p.Fetched&bit != 0 {
		p.Touched |= bit
		if r.Write {
			p.Dirty |= bit
			d.st.Writes++
			// The block write lands in the open row.
			d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: tagKnown})
			return dramcache.Response{DoneAt: tagKnown, Hit: true}
		}
		d.st.Reads++
		d.st.ReadHits++
		return dramcache.Response{DoneAt: dataReady, Hit: true}
	}

	// Underprediction: resident page, unfetched block (§III-A.3). Fetch
	// only the block; eviction-time training repairs the footprint.
	p.Fetched |= bit
	p.Touched |= bit
	if r.Write {
		p.Dirty |= bit
		d.st.Writes++
		d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: tagKnown})
		return dramcache.Response{DoneAt: tagKnown, Hit: false}
	}
	d.st.Reads++
	d.st.UnderpredMisses++
	res := d.offchip.Access(uint64(r.Addr), tagKnown, mem.BlockSize, false)
	d.st.OffchipReadBytes += mem.BlockSize
	// Fill the block into the row. Background operations are issued at
	// the demand access's timestamp: the simulator processes requests in
	// core-clock order, so a future-dated reservation would wrongly block
	// demand reads that a real (reordering) controller serves first; the
	// bandwidth and bank occupancy are what must be charged.
	d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: mem.BlockSize, Write: true, At: r.At})
	return dramcache.Response{DoneAt: res.Done, Hit: false}
}

// triggerMiss allocates (or singleton-bypasses) on the first access to an
// uncached page.
func (d *Unison) triggerMiss(r dramcache.Request, page uint64, off int, set uint64, tagKnown uint64) dramcache.Response {
	// Consult the footprint history table (small fixed SRAM latency).
	predictAt := tagKnown + footprintLookupCycles

	var predicted predictor.Footprint
	if pc0, off0, promoted := d.singleCheck(page); promoted {
		predicted = predictor.Footprint(1)<<off0 | predictor.Footprint(1)<<off
		d.fp.Update(pc0, off0, predicted)
	} else {
		predicted = d.fp.Predict(r.PC, off)
	}

	if !d.cfg.DisableSingleton && mem.PopCount32(predicted) == 1 {
		d.st.SingletonSkips++
		d.single.Insert(page, r.PC, off)
		res := d.offchip.Access(uint64(r.Addr), predictAt, mem.BlockSize, false)
		d.st.OffchipReadBytes += mem.BlockSize
		return dramcache.Response{DoneAt: res.Done, Hit: false}
	}

	way := d.table.Victim(set)
	p := d.table.Page(set, way)
	if p.Valid {
		d.evict(p, predictAt)
	}

	// Fetch the predicted footprint: critical block first, remainder
	// streamed from the same off-chip row (one activation for ~10 blocks,
	// the §V-D energy argument).
	crit := d.offchip.Access(uint64(r.Addr), predictAt, mem.BlockSize, false)
	k := mem.PopCount32(predicted)
	d.st.OffchipReadBytes += uint64(k) * mem.BlockSize
	if k > 1 {
		// The rest of the footprint streams right behind the critical
		// block (same off-chip row, one activation).
		d.offchip.Access(uint64(d.pageAddr(page)), crit.DataAt, (k-1)*mem.BlockSize, false)
	}

	*p = dramcache.PageState{
		Tag:       page,
		Predicted: predicted,
		Fetched:   predicted,
		Touched:   predictor.Footprint(1) << off,
		PC:        r.PC,
		Off:       int8(off),
		Valid:     true,
	}
	d.table.Promote(set, way)
	d.wp.Update(page, way)

	// Write the footprint and the page's metadata (tag, vectors,
	// PC+offset — Figure 2) into the stacked row, off the critical path
	// (charged at the demand timestamp; see the fill comment above).
	ch, bank, row := d.rowOf(set)
	d.stacked.Do(dram.Request{Channel: ch, Bank: bank, Row: row, Bytes: k*mem.BlockSize + 16, Write: true, At: r.At})
	return dramcache.Response{DoneAt: crit.Done, Hit: false}
}

// singleCheck consults the singleton table unless disabled.
func (d *Unison) singleCheck(page uint64) (pc uint64, off int, ok bool) {
	if d.cfg.DisableSingleton {
		return 0, 0, false
	}
	return d.single.Check(page)
}

// pageAddr returns the byte address of the page's first block in memory.
func (d *Unison) pageAddr(page uint64) mem.Addr {
	return mem.BlockAddr(page * uint64(d.cfg.PageBlocks))
}

// evict retires a page: the (PC, offset) pair and bit vectors read from the
// row train the footprint predictor (§III-A.2); dirty blocks write back at
// footprint granularity.
func (d *Unison) evict(p *dramcache.PageState, at uint64) {
	d.fp.RecordEviction(p.PC, int(p.Off), p.Predicted, p.Touched)
	if n := mem.PopCount32(p.Dirty); n > 0 {
		d.offchip.Access(uint64(d.pageAddr(p.Tag)), at, n*mem.BlockSize, true)
		d.st.OffchipWriteBytes += uint64(n) * mem.BlockSize
	}
	p.Valid = false
}

// AccessBatch implements dramcache.Design via the serial adapter.
func (d *Unison) AccessBatch(reqs []dramcache.Request, resps []dramcache.Response) {
	dramcache.SerialAccess(d, reqs, resps)
}

// Snapshot implements dramcache.Design.
func (d *Unison) Snapshot() dramcache.Snapshot {
	s := dramcache.Snapshot{Name: d.Name(), Counters: d.st}
	fps := d.fp.Stats()
	acc, of := fps.Accuracy, fps.Overfetch
	s.FP = &acc
	s.FO = &of
	if !d.cfg.DisableWayPrediction {
		w := d.wp.Stats().Accuracy
		s.WP = &w
	}
	return s
}

// ResetStats implements dramcache.Design.
func (d *Unison) ResetStats() {
	d.st = dramcache.Counters{}
	d.fp.ResetStats()
	d.wp.ResetStats()
	d.single.ResetStats()
}
