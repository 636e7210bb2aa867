package cache

import "unisoncache/internal/checkpoint"

// SaveState serializes the cache's complete mutable state — tag, block
// state, LRU, insertion-order and fill arrays plus counters — into a
// checkpoint stream. Geometry (sets, ways) is not serialized: it is owned
// by construction, and LoadState rejects a snapshot whose array sizes
// disagree with the configured geometry.
func (c *Cache) SaveState(w *checkpoint.Writer) {
	c.syncLRUArrays() // packed caches carry LRU state in rank words
	w.Section("cache")
	w.U64Slice(c.tags)
	w.U8Slice(c.state)
	w.U8Slice(c.lru)
	w.U8Slice(c.order)
	w.U8Slice(c.fill)
	w.U64(c.stats.Accesses)
	w.U64(c.stats.Hits)
	w.U64(c.stats.Writebacks)
}

// LoadState restores state saved by SaveState into an identically
// configured cache.
func (c *Cache) LoadState(r *checkpoint.Reader) error {
	r.Section("cache")
	r.U64SliceInto(c.tags)
	r.U8SliceInto(c.state)
	r.U8SliceInto(c.lru)
	r.U8SliceInto(c.order)
	r.U8SliceInto(c.fill)
	c.stats.Accesses = r.U64()
	c.stats.Hits = r.U64()
	c.stats.Writebacks = r.U64()
	c.rebuildPacked()
	c.last = tagInvalid
	return r.Err()
}
