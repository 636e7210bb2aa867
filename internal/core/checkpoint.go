package core

import "unisoncache/internal/checkpoint"

// SaveState implements dramcache.Design: it serializes Unison Cache's
// complete mutable state — footprint, singleton and way predictor tables,
// the page table and the design counters — into a checkpoint stream.
// Geometry and configuration are owned by construction; LoadState rejects
// snapshots whose table sizes disagree.
func (d *Unison) SaveState(w *checkpoint.Writer) {
	w.Section("unison")
	d.fp.SaveState(w)
	d.single.SaveState(w)
	d.wp.SaveState(w)
	d.table.SaveState(w)
	w.U64(d.st.reads)
	w.U64(d.st.readHits)
	w.U64(d.st.writes)
	w.U64(d.st.triggerMisses)
	w.U64(d.st.underpredMisses)
	w.U64(d.st.singletonSkips)
	w.U64(d.st.offReadBytes)
	w.U64(d.st.offWriteBytes)
	w.U64(d.st.wayMispredicts)
}

// LoadState implements dramcache.Design.
func (d *Unison) LoadState(r *checkpoint.Reader) error {
	r.Section("unison")
	if err := d.fp.LoadState(r); err != nil {
		return err
	}
	if err := d.single.LoadState(r); err != nil {
		return err
	}
	if err := d.wp.LoadState(r); err != nil {
		return err
	}
	if err := d.table.LoadState(r); err != nil {
		return err
	}
	d.st.reads = r.U64()
	d.st.readHits = r.U64()
	d.st.writes = r.U64()
	d.st.triggerMisses = r.U64()
	d.st.underpredMisses = r.U64()
	d.st.singletonSkips = r.U64()
	d.st.offReadBytes = r.U64()
	d.st.offWriteBytes = r.U64()
	d.st.wayMispredicts = r.U64()
	return r.Err()
}
