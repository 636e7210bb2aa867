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
	d.st.SaveState(w)
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
	return d.st.LoadState(r)
}
