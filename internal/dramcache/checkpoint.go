package dramcache

import (
	"fmt"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/predictor"
)

// This file serializes each design's complete mutable state into a
// checkpoint stream: page/TAD arrays, predictor tables (via the predictor
// package's own codecs) and the access counters. Geometry is owned by
// construction; LoadState rejects snapshots whose array sizes disagree.

// SaveState serializes every page's state and the LRU array.
func (t *PageTable) SaveState(w *checkpoint.Writer) {
	w.Section("dramcache.pagetable")
	w.U64(uint64(len(t.pages)))
	for i := range t.pages {
		p := &t.pages[i]
		w.U64(p.Tag)
		w.U32(uint32(p.Predicted))
		w.U32(uint32(p.Fetched))
		w.U32(uint32(p.Touched))
		w.U32(uint32(p.Dirty))
		w.U64(p.PC)
		w.U8(uint8(p.Off))
		w.Bool(p.Valid)
	}
	w.U8Slice(t.lru)
}

// LoadState restores state saved by SaveState into an identically sized
// table.
func (t *PageTable) LoadState(r *checkpoint.Reader) error {
	r.Section("dramcache.pagetable")
	if n := r.U64(); r.Err() == nil && n != uint64(len(t.pages)) {
		return fmt.Errorf("dramcache: snapshot has %d pages, table has %d", n, len(t.pages))
	}
	for i := range t.pages {
		p := &t.pages[i]
		p.Tag = r.U64()
		p.Predicted = predictor.Footprint(r.U32())
		p.Fetched = predictor.Footprint(r.U32())
		p.Touched = predictor.Footprint(r.U32())
		p.Dirty = predictor.Footprint(r.U32())
		p.PC = r.U64()
		p.Off = int8(r.U8())
		p.Valid = r.Bool()
	}
	r.U8SliceInto(t.lru)
	return r.Err()
}

// SaveState implements Design.
func (d *Alloy) SaveState(w *checkpoint.Writer) {
	w.Section("alloy")
	w.U64Slice(d.tads)
	d.mp.SaveState(w)
	d.st.SaveState(w)
}

// LoadState implements Design.
func (d *Alloy) LoadState(r *checkpoint.Reader) error {
	r.Section("alloy")
	r.U64SliceInto(d.tads)
	if err := d.mp.LoadState(r); err != nil {
		return err
	}
	return d.st.LoadState(r)
}

// SaveState implements Design.
func (d *Footprint) SaveState(w *checkpoint.Writer) {
	w.Section("footprint")
	d.fp.SaveState(w)
	d.single.SaveState(w)
	d.table.SaveState(w)
	d.st.SaveState(w)
}

// LoadState implements Design.
func (d *Footprint) LoadState(r *checkpoint.Reader) error {
	r.Section("footprint")
	if err := d.fp.LoadState(r); err != nil {
		return err
	}
	if err := d.single.LoadState(r); err != nil {
		return err
	}
	if err := d.table.LoadState(r); err != nil {
		return err
	}
	return d.st.LoadState(r)
}

// SaveState implements Design.
func (d *LohHill) SaveState(w *checkpoint.Writer) {
	w.Section("lohhill")
	d.table.SaveState(w)
	d.st.SaveState(w)
}

// LoadState implements Design.
func (d *LohHill) LoadState(r *checkpoint.Reader) error {
	r.Section("lohhill")
	if err := d.table.LoadState(r); err != nil {
		return err
	}
	return d.st.LoadState(r)
}

// SaveState implements Design.
func (d *Ideal) SaveState(w *checkpoint.Writer) {
	w.Section("ideal")
	d.st.SaveState(w)
}

// LoadState implements Design.
func (d *Ideal) LoadState(r *checkpoint.Reader) error {
	r.Section("ideal")
	return d.st.LoadState(r)
}

// SaveState implements Design.
func (d *None) SaveState(w *checkpoint.Writer) {
	w.Section("none")
	d.st.SaveState(w)
}

// LoadState implements Design.
func (d *None) LoadState(r *checkpoint.Reader) error {
	r.Section("none")
	return d.st.LoadState(r)
}
