package predictor

import (
	"fmt"

	"unisoncache/internal/checkpoint"
)

// This file serializes each predictor's complete mutable state into a
// checkpoint stream. Geometry (entry counts, hash widths, page sizes) is
// owned by construction and never serialized; LoadState rejects snapshots
// whose table sizes disagree with the configured structure.

// SaveState serializes the footprint history table and its statistics.
func (p *FootprintPredictor) SaveState(w *checkpoint.Writer) {
	w.Section("predictor.footprint")
	w.U64(uint64(len(p.entries)))
	for _, e := range p.entries {
		w.U32(e.tag)
		w.U32(uint32(e.fp))
		w.Bool(e.valid)
	}
	w.U64(p.stats.Accuracy.Num)
	w.U64(p.stats.Accuracy.Den)
	w.U64(p.stats.Overfetch.Num)
	w.U64(p.stats.Overfetch.Den)
}

// LoadState restores state saved by SaveState.
func (p *FootprintPredictor) LoadState(r *checkpoint.Reader) error {
	r.Section("predictor.footprint")
	if n := r.U64(); r.Err() == nil && n != uint64(len(p.entries)) {
		return fmt.Errorf("predictor: snapshot has %d footprint entries, table has %d", n, len(p.entries))
	}
	for i := range p.entries {
		p.entries[i].tag = r.U32()
		p.entries[i].fp = Footprint(r.U32())
		p.entries[i].valid = r.Bool()
	}
	p.stats.Accuracy.Num = r.U64()
	p.stats.Accuracy.Den = r.U64()
	p.stats.Overfetch.Num = r.U64()
	p.stats.Overfetch.Den = r.U64()
	return r.Err()
}

// SaveState serializes the way-prediction table and its accuracy counter.
func (p *WayPredictor) SaveState(w *checkpoint.Writer) {
	w.Section("predictor.way")
	w.U8Slice(p.table)
	w.U64(p.stats.Accuracy.Num)
	w.U64(p.stats.Accuracy.Den)
}

// LoadState restores state saved by SaveState.
func (p *WayPredictor) LoadState(r *checkpoint.Reader) error {
	r.Section("predictor.way")
	r.U8SliceInto(p.table)
	p.stats.Accuracy.Num = r.U64()
	p.stats.Accuracy.Den = r.U64()
	return r.Err()
}

// SaveState serializes the singleton table and its counters.
func (t *SingletonTable) SaveState(w *checkpoint.Writer) {
	w.Section("predictor.singleton")
	w.U64(uint64(len(t.entries)))
	for _, e := range t.entries {
		w.U64(e.page)
		w.U64(e.pc)
		w.U8(uint8(e.offset))
		w.Bool(e.valid)
	}
	w.U64(t.Promotions)
	w.U64(t.Bypasses)
}

// LoadState restores state saved by SaveState.
func (t *SingletonTable) LoadState(r *checkpoint.Reader) error {
	r.Section("predictor.singleton")
	if n := r.U64(); r.Err() == nil && n != uint64(len(t.entries)) {
		return fmt.Errorf("predictor: snapshot has %d singleton entries, table has %d", n, len(t.entries))
	}
	for i := range t.entries {
		t.entries[i].page = r.U64()
		t.entries[i].pc = r.U64()
		t.entries[i].offset = int8(r.U8())
		t.entries[i].valid = r.Bool()
	}
	t.Promotions = r.U64()
	t.Bypasses = r.U64()
	return r.Err()
}

// SaveState serializes the per-core MAP-I counter tables and statistics.
func (p *MissPredictor) SaveState(w *checkpoint.Writer) {
	w.Section("predictor.miss")
	w.U64(uint64(len(p.tables)))
	for _, t := range p.tables {
		w.U8Slice(t)
	}
	w.U64(p.stats.Accuracy.Num)
	w.U64(p.stats.Accuracy.Den)
	w.U64(p.stats.FalseMiss)
	w.U64(p.stats.SlowMiss)
	w.U64(p.stats.Hits)
	w.U64(p.stats.Misses)
}

// LoadState restores state saved by SaveState.
func (p *MissPredictor) LoadState(r *checkpoint.Reader) error {
	r.Section("predictor.miss")
	if n := r.U64(); r.Err() == nil && n != uint64(len(p.tables)) {
		return fmt.Errorf("predictor: snapshot has %d per-core tables, predictor has %d", n, len(p.tables))
	}
	for _, t := range p.tables {
		r.U8SliceInto(t)
	}
	p.stats.Accuracy.Num = r.U64()
	p.stats.Accuracy.Den = r.U64()
	p.stats.FalseMiss = r.U64()
	p.stats.SlowMiss = r.U64()
	p.stats.Hits = r.U64()
	p.stats.Misses = r.U64()
	return r.Err()
}
