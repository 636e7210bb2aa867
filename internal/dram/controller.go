package dram

import (
	"fmt"
	"math/bits"
)

// Stats aggregates the controller's activity counters. Activations are the
// energy proxy the paper's §V-D discussion uses.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	Activations  uint64
	BytesRead    uint64
	BytesWritten uint64
	BusBusyCPU   uint64 // CPU cycles the data buses were occupied
}

// Reset zeroes the counters (used at the warmup/measurement boundary).
func (s *Stats) Reset() { *s = Stats{} }

// RowHitRate returns the fraction of column accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// bank holds the per-bank timing state.
type bank struct {
	openRow   int64  // -1 when precharged
	actAt     uint64 // CPU cycle of the last ACT
	readyAt   uint64 // earliest CPU cycle the next column command may issue
	preOKAt   uint64 // earliest CPU cycle a PRE may issue (tRAS / tWR / tRTP)
	nextActAt uint64 // earliest CPU cycle the next ACT may issue (tRC, tRP)
}

// rank holds the per-rank activate history for tRRD and tFAW.
type rank struct {
	lastActAt uint64
	actWindow [4]uint64 // rolling window of the last four ACT times
	actIdx    int
}

// channel holds per-channel shared state: the data bus, the rank activate
// windows, and the banks (ranks*banksPerRank of them, rank-major).
type channel struct {
	busFreeAt uint64
	ranks     []rank
	banks     []bank
}

// Controller is one DRAM part: a set of channels with banks, serving timed
// requests. It is not safe for concurrent use; the simulation engine is
// single-threaded by design.
type Controller struct {
	cfg Config
	ch  []channel

	// Pre-converted CPU-cycle versions of the timing parameters.
	tCAS, tRCD, tRP, tRAS, tRC, tWR, tWTR, tRTP, tRRD, tFAW uint64

	// Address-mapping and burst fast paths. Every Table III organization
	// is power-of-two shaped, which turns the per-request divisions of
	// MapAddr and BurstCPU into shifts and a small table lookup; the slow
	// path keeps odd organizations working and the results are identical
	// by construction.
	rowShift, chanShift, bankShift uint
	chanMask, bankMask             uint64
	mapShifts                      bool
	perShift                       int // log2(2*BusBytes), -1 when not a power of two
	toCPUTab                       []uint64

	stats Stats
}

// log2of returns (log2(v), true) when v is a positive power of two.
func log2of(v int) (uint, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	return uint(bits.TrailingZeros64(uint64(v))), true
}

// NewController builds a controller for the given configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg}
	c.ch = make([]channel, cfg.Org.Channels)
	for i := range c.ch {
		c.ch[i].ranks = make([]rank, cfg.Org.Ranks)
		c.ch[i].banks = make([]bank, cfg.Org.Ranks*cfg.Org.Banks)
		for b := range c.ch[i].banks {
			c.ch[i].banks[b].openRow = -1
		}
	}
	t := cfg.Timing
	c.tCAS = cfg.ToCPU(t.CAS)
	c.tRCD = cfg.ToCPU(t.RCD)
	c.tRP = cfg.ToCPU(t.RP)
	c.tRAS = cfg.ToCPU(t.RAS)
	c.tRC = cfg.ToCPU(t.RC)
	c.tWR = cfg.ToCPU(t.WR)
	c.tWTR = cfg.ToCPU(t.WTR)
	c.tRTP = cfg.ToCPU(t.RTP)
	c.tRRD = cfg.ToCPU(t.RRD)
	c.tFAW = cfg.ToCPU(t.FAW)

	rowS, rowOK := log2of(cfg.Org.RowBytes)
	chS, chOK := log2of(cfg.Org.Channels)
	bkS, bkOK := log2of(cfg.Org.Ranks * cfg.Org.Banks)
	if rowOK && chOK && bkOK {
		c.rowShift, c.chanShift, c.bankShift = rowS, chS, bkS
		c.chanMask = uint64(cfg.Org.Channels) - 1
		c.bankMask = uint64(cfg.Org.Ranks*cfg.Org.Banks) - 1
		c.mapShifts = true
	}
	c.perShift = -1
	if s, ok := log2of(2 * cfg.Org.BusBytes); ok {
		c.perShift = int(s)
	}
	// Memoize the DRAM-to-CPU clock conversion for every burst length up
	// to a full row (the largest transfer any design issues).
	maxClocks := (cfg.Org.RowBytes+2*cfg.Org.BusBytes-1)/(2*cfg.Org.BusBytes) + 1
	c.toCPUTab = make([]uint64, maxClocks+1)
	for i := range c.toCPUTab {
		c.toCPUTab[i] = cfg.ToCPU(i)
	}
	return c, nil
}

// burstCPU is the controller-side BurstCPU: identical results, with the
// division replaced by a shift and a table lookup on the hot path.
func (c *Controller) burstCPU(bytes int) uint64 {
	if bytes <= 0 {
		return 0
	}
	var clocks int
	if c.perShift >= 0 {
		clocks = (bytes + 1<<c.perShift - 1) >> c.perShift
	} else {
		per := 2 * c.cfg.Org.BusBytes
		clocks = (bytes + per - 1) / per
	}
	if clocks < len(c.toCPUTab) {
		return c.toCPUTab[clocks]
	}
	return c.cfg.ToCPU(clocks)
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing bank state, so warmup
// traffic leaves the row buffers realistically warm.
func (c *Controller) ResetStats() { c.stats.Reset() }

// Request is one timed DRAM transaction addressed physically by
// channel/bank/row. Bytes is the payload moved over the data bus.
type Request struct {
	Channel int
	Bank    int
	Row     uint64
	Bytes   int
	Write   bool
	// At is the CPU cycle the request reaches the controller.
	At uint64
}

// Result reports the timing of a completed request.
type Result struct {
	// DataAt is the CPU cycle the first critical word is available
	// (reads) or the data bus transfer begins (writes).
	DataAt uint64
	// Done is the CPU cycle the full burst has moved over the bus.
	Done uint64
	// RowHit reports whether the access hit an open row buffer.
	RowHit bool
}

// Do services one request and advances the bank/channel state. Requests may
// arrive with non-monotonic At values across banks (per-core clocks drift
// apart); state updates use max() so reservations never move backwards.
func (c *Controller) Do(r Request) Result {
	if r.Channel < 0 || r.Channel >= len(c.ch) {
		panic(fmt.Sprintf("dram: channel %d out of range [0,%d)", r.Channel, len(c.ch)))
	}
	ch := &c.ch[r.Channel]
	if r.Bank < 0 || r.Bank >= len(ch.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", r.Bank, len(ch.banks)))
	}
	bk := &ch.banks[r.Bank]

	now := r.At
	rowHit := bk.openRow == int64(r.Row)
	if !rowHit {
		if bk.openRow >= 0 {
			// PRE the open row: legal only after tRAS from ACT and any
			// read/write-to-precharge recovery.
			preAt := maxU(now, bk.preOKAt)
			bk.nextActAt = maxU(bk.nextActAt, preAt+c.tRP)
		}
		// ACT the target row, honoring tRC (same bank) and the rank's
		// tRRD/tFAW windows.
		rk := &ch.ranks[r.Bank/c.cfg.Org.Banks]
		actAt := maxU(now, bk.nextActAt)
		actAt = maxU(actAt, rk.lastActAt+c.tRRD)
		if faw := rk.actWindow[rk.actIdx]; faw > 0 {
			actAt = maxU(actAt, faw+c.tFAW)
		}
		bk.openRow = int64(r.Row)
		bk.actAt = actAt
		bk.readyAt = actAt + c.tRCD
		bk.preOKAt = actAt + c.tRAS
		bk.nextActAt = actAt + c.tRC
		rk.lastActAt = actAt
		rk.actWindow[rk.actIdx] = actAt
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		c.stats.Activations++
	}

	// Column command: wait for the bank and for the shared data bus.
	burst := c.burstCPU(r.Bytes)
	colAt := maxU(now, bk.readyAt)

	var res Result
	if r.Write {
		// Write data follows the column command after tCWL ~ tCAS-1; we
		// use tCAS for simplicity. The burst occupies the bus; write
		// recovery gates subsequent PRE and reads.
		dataStart := maxU(colAt+c.tCAS, ch.busFreeAt)
		dataEnd := dataStart + burst
		ch.busFreeAt = dataEnd
		bk.readyAt = maxU(bk.readyAt, dataEnd+c.tWTR)
		bk.preOKAt = maxU(bk.preOKAt, dataEnd+c.tWR)
		c.stats.Writes++
		c.stats.BytesWritten += uint64(r.Bytes)
		res = Result{DataAt: dataStart, Done: dataEnd, RowHit: rowHit}
	} else {
		dataStart := maxU(colAt+c.tCAS, ch.busFreeAt)
		dataEnd := dataStart + burst
		ch.busFreeAt = dataEnd
		// Back-to-back reads to the same bank are gated by the bus, which
		// readyAt need not track; read-to-precharge is.
		bk.preOKAt = maxU(bk.preOKAt, colAt+c.tRTP)
		c.stats.Reads++
		c.stats.BytesRead += uint64(r.Bytes)
		res = Result{DataAt: dataStart, Done: dataEnd, RowHit: rowHit}
	}
	if rowHit {
		c.stats.RowHits++
	}
	c.stats.BusBusyCPU += burst
	return res
}

// MapAddr maps a physical address to (channel, bank, row) with row
// interleaving across channels then banks, the layout that maximizes
// bank-level parallelism for the streaming fills the caches perform.
func (c *Controller) MapAddr(addr uint64) (channel, bankIdx int, row uint64) {
	if c.mapShifts {
		r := addr >> c.rowShift
		channel = int(r & c.chanMask)
		r >>= c.chanShift
		bankIdx = int(r & c.bankMask)
		row = r >> c.bankShift
		return channel, bankIdx, row
	}
	totalBanks := uint64(c.cfg.Org.Ranks * c.cfg.Org.Banks)
	r := addr / uint64(c.cfg.Org.RowBytes)
	channel = int(r % uint64(c.cfg.Org.Channels))
	r /= uint64(c.cfg.Org.Channels)
	bankIdx = int(r % totalBanks)
	row = r / totalBanks
	return channel, bankIdx, row
}

// Access is the address-based convenience wrapper over Do used for off-chip
// memory traffic.
func (c *Controller) Access(addr uint64, at uint64, bytes int, write bool) Result {
	ch, bk, row := c.MapAddr(addr)
	return c.Do(Request{Channel: ch, Bank: bk, Row: row, Bytes: bytes, Write: write, At: at})
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
