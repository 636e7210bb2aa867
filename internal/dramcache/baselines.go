package dramcache

import (
	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
)

// Ideal is the latency-optimized reference of Figures 7 and 8: a DRAM cache
// that never misses and pays no tag overhead — functionally die-stacked
// main memory. Every access is a single stacked-DRAM block transfer.
type Ideal struct {
	stacked *dram.Controller
	st      Counters
}

// NewIdeal builds the ideal cache over the given stacked part.
func NewIdeal(stacked *dram.Controller) *Ideal {
	return &Ideal{stacked: stacked}
}

// Name implements Design.
func (d *Ideal) Name() string { return "ideal" }

// Access implements Design: always a hit, one 64 B stacked access.
func (d *Ideal) Access(r Request) Response {
	res := d.stacked.Access(uint64(r.Addr), r.At, mem.BlockSize, r.Write)
	if r.Write {
		d.st.Writes++
		return Response{DoneAt: res.Done, Hit: true}
	}
	d.st.Reads++
	d.st.ReadHits++
	return Response{DoneAt: res.Done, Hit: true}
}

// AccessBatch implements Design via the serial adapter.
func (d *Ideal) AccessBatch(reqs []Request, resps []Response) { SerialAccess(d, reqs, resps) }

// Snapshot implements Design.
func (d *Ideal) Snapshot() Snapshot { return Snapshot{Name: d.Name(), Counters: d.st} }

// ResetStats implements Design.
func (d *Ideal) ResetStats() { d.st = Counters{} }

// None is the cache-less baseline: every L2 miss goes to off-chip memory.
// It is the denominator of every speedup in Figures 7 and 8.
type None struct {
	offchip *dram.Controller
	st      Counters
}

// NewNone builds the baseline over the off-chip part.
func NewNone(offchip *dram.Controller) *None {
	return &None{offchip: offchip}
}

// Name implements Design.
func (d *None) Name() string { return "none" }

// Access implements Design: a 64 B off-chip transfer, never a hit.
func (d *None) Access(r Request) Response {
	res := d.offchip.Access(uint64(r.Addr), r.At, mem.BlockSize, r.Write)
	if r.Write {
		d.st.Writes++
		d.st.OffchipWriteBytes += mem.BlockSize
	} else {
		d.st.Reads++
		d.st.OffchipReadBytes += mem.BlockSize
	}
	return Response{DoneAt: res.Done, Hit: false}
}

// AccessBatch implements Design via the serial adapter.
func (d *None) AccessBatch(reqs []Request, resps []Response) { SerialAccess(d, reqs, resps) }

// Snapshot implements Design.
func (d *None) Snapshot() Snapshot { return Snapshot{Name: d.Name(), Counters: d.st} }

// ResetStats implements Design.
func (d *None) ResetStats() { d.st = Counters{} }
