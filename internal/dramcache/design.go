// Package dramcache defines the interface every die-stacked DRAM cache
// design implements, plus the designs the paper evaluates against Unison
// Cache: the block-based Alloy Cache, the page-based Footprint Cache, the
// ideal latency-optimized cache, and the no-cache baseline. Unison Cache
// itself — the paper's contribution — lives in internal/core and implements
// the same interface.
package dramcache

import (
	"unisoncache/internal/checkpoint"
	"unisoncache/internal/mem"
	"unisoncache/internal/stats"
)

// Request is one L2-miss-level access presented to the DRAM cache.
type Request struct {
	// Addr is the physical byte address (block-aligned by callers).
	Addr mem.Addr
	// PC is the program counter of the triggering instruction; the
	// footprint and miss predictors key on it.
	PC uint64
	// Core is the issuing core, used by per-core predictor tables.
	Core int
	// Write marks a dirty writeback arriving from the L2.
	Write bool
	// At is the CPU cycle the request reaches the DRAM cache controller.
	At uint64
}

// Response reports when and how a request was satisfied.
type Response struct {
	// DoneAt is the CPU cycle the requested block is available (reads) or
	// accepted (writes).
	DoneAt uint64
	// Hit reports whether the DRAM cache supplied the block.
	Hit bool
}

// Design is the interface all DRAM cache organizations implement.
type Design interface {
	// Name identifies the design in reports ("alloy", "footprint",
	// "unison", "ideal", "none").
	Name() string
	// Access services one request, advancing DRAM timing state.
	Access(Request) Response
	// AccessBatch services len(reqs) requests, writing resps[i] for
	// reqs[i], exactly as calling Access once per request in slice order.
	// resps must be at least as long as reqs. Every design implements it
	// with SerialAccess; the replay engine issues each request through
	// Access, and the method stays for existing wrappers that time it.
	AccessBatch(reqs []Request, resps []Response)
	// Snapshot returns the current statistics.
	Snapshot() Snapshot
	// ResetStats zeroes statistics while keeping all cache, predictor and
	// DRAM state warm (the warmup/measurement boundary).
	ResetStats()
	// SaveState serializes the design's complete mutable state — arrays,
	// predictor tables and counters — into a checkpoint stream.
	SaveState(*checkpoint.Writer)
	// LoadState restores state saved by SaveState into an identically
	// configured design, rejecting geometry mismatches.
	LoadState(*checkpoint.Reader) error
}

// SerialAccess implements AccessBatch as one Access call per request, in
// order.
func SerialAccess(d Design, reqs []Request, resps []Response) {
	for i := range reqs {
		resps[i] = d.Access(reqs[i])
	}
}

// Counters is the counter block every design keeps and counts into —
// the one declaration of each shared design statistic, from the design
// that counts it through Snapshot (which embeds it, so the JSON keys stay
// flat) to the checkpoint codec below.
type Counters struct {
	// Demand-read accounting; the paper's miss ratios are over reads.
	Reads    uint64
	ReadHits uint64
	// Writes counts L2 writebacks absorbed.
	Writes uint64

	// Miss taxonomy (page-based designs).
	TriggerMisses   uint64 // first access to an uncached page
	UnderpredMisses uint64 // page cached, block not fetched (§III-A.3)
	SingletonSkips  uint64 // misses bypassed without allocation (§III-A.4)

	// Off-chip traffic in bytes; the bandwidth-efficiency metric.
	OffchipReadBytes  uint64
	OffchipWriteBytes uint64
}

// SaveState serializes the counters into a checkpoint stream.
func (c *Counters) SaveState(w *checkpoint.Writer) {
	w.U64(c.Reads)
	w.U64(c.ReadHits)
	w.U64(c.Writes)
	w.U64(c.TriggerMisses)
	w.U64(c.UnderpredMisses)
	w.U64(c.SingletonSkips)
	w.U64(c.OffchipReadBytes)
	w.U64(c.OffchipWriteBytes)
}

// LoadState restores counters saved by SaveState.
func (c *Counters) LoadState(r *checkpoint.Reader) error {
	c.Reads = r.U64()
	c.ReadHits = r.U64()
	c.Writes = r.U64()
	c.TriggerMisses = r.U64()
	c.UnderpredMisses = r.U64()
	c.SingletonSkips = r.U64()
	c.OffchipReadBytes = r.U64()
	c.OffchipWriteBytes = r.U64()
	return r.Err()
}

// Snapshot is the uniform statistics view the experiment harness consumes.
// Predictor sections are nil for designs that lack the predictor.
type Snapshot struct {
	Name string
	Counters

	FP *stats.Ratio // footprint accuracy (nil when n/a)
	FO *stats.Ratio // footprint overfetch
	WP *stats.Ratio // way-prediction accuracy
	MP *stats.Ratio // miss-prediction accuracy
	// MPOverfetchPct is the unnecessary off-chip fetch percentage of the
	// Alloy miss predictor.
	MPOverfetchPct float64
}

// MissRatioPct returns the demand-read miss ratio in percent:
// 100 * (Reads - ReadHits) / Reads. Writes (L2 dirty writebacks absorbed
// by the cache) are excluded from both numerator and denominator — the
// paper's miss ratios are over demand reads only, and a write "hit" says
// nothing about fetch traffic. With zero reads observed (e.g. a snapshot
// taken before any demand read) the ratio is defined as 0, not NaN.
func (s Snapshot) MissRatioPct() float64 {
	if s.Reads == 0 {
		return 0
	}
	return 100 * float64(s.Reads-s.ReadHits) / float64(s.Reads)
}
