// Package cache implements the on-chip SRAM caches of the baseline system
// (Table III): per-core L1 data caches and the shared L2. The model is a
// set-associative, write-back, write-allocate cache with true-LRU
// replacement, tracking tags only — simulated data never exists, which is
// what makes 10^8-access runs practical.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one SRAM cache level.
type Config struct {
	Name string
	// SizeBytes is the total data capacity; it must be a power-of-two
	// multiple of the 64 B block.
	SizeBytes int
	Ways      int
	// Latency is the load-to-use latency in CPU cycles.
	Latency uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: size and ways must be positive", c.Name)
	}
	blocks := c.SizeBytes / 64
	if blocks*64 != c.SizeBytes || blocks%c.Ways != 0 {
		return fmt.Errorf("cache %q: size %d not divisible into %d-way sets of 64B blocks", c.Name, c.SizeBytes, c.Ways)
	}
	sets := blocks / c.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Writebacks uint64
}

// Misses returns Accesses - Hits.
func (s Stats) Misses() uint64 { return s.Accesses - s.Hits }

// HitRatio returns Hits/Accesses. With zero accesses observed — an idle
// cache, or a telemetry epoch in which no request reached this level —
// the ratio is defined as 0, not NaN, so it can be aggregated and
// serialized without poisoning downstream arithmetic.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

const (
	stateInvalid uint8 = iota
	stateClean
	stateDirty
)

// tagInvalid is the tag stored in invalid ways. Block numbers are physical
// byte addresses divided by 64, so no reachable block ever equals it; the
// hit loop can then compare tags alone without consulting the state array.
const tagInvalid = ^uint64(0)

// Cache is one SRAM cache level. Not safe for concurrent use.
type Cache struct {
	cfg     Config
	sets    uint64
	setMask uint64
	ways    int
	// tags, state, lru and order are sets*ways flat arrays; way w of set s
	// lives at index s*ways+w. Invalid ways hold tagInvalid. lru holds
	// recency ranks (0 = MRU, ways-1 = LRU) and order is its inverse —
	// order[s*ways+r] is the way holding rank r — so the MRU probe and
	// LRU victim choice are both O(1) lookups instead of scans.
	tags  []uint64
	state []uint8
	lru   []uint8
	order []uint8
	// fill counts each set's valid ways. Ways fill in index order and are
	// never invalidated, so ways [0, fill) are valid and fill is the next
	// invalid way — victim selection scans nothing until the set is full.
	fill  []uint8
	stats Stats
	// last and lastAt remember a packed cache's previous access: its block
	// and that block's index in tags. The access left the block in its
	// set's MRU way, and a block keeps its way until a fill evicts it, so
	// when the next access repeats last it hits at lastAt with no
	// promotion to make and no tag or rank word to load. Every packed
	// access that hits or fills sets them; last is tagInvalid, which no
	// block equals, before the first one and after a restore.
	last   uint64
	lastAt uint64
	// packed caches (ways <= 8) keep each set's rank-ordered way list in
	// one uint64 of orderW — byte r is the way holding rank r — so LRU
	// promotion is a handful of ALU ops instead of two array rewrites.
	// packed16 caches (8 < ways <= 16, the L2 shape) split the list across
	// orderW (ranks 0-7) and orderHi (ranks 8-15). The lru/order byte
	// arrays stay allocated as the checkpoint wire format and are
	// materialized from the rank words on demand (syncLRUArrays).
	packed   bool
	packed16 bool
	orderW   []uint64
	orderHi  []uint64
}

// initOrderWord is a fresh set's packed rank word: byte r holds way r
// (initOrderHi covers ranks 8-15). Bytes at ranks >= ways never change and
// hold values >= ways, so they can never alias a real way in the promote
// byte search.
const (
	initOrderWord = 0x0706050403020100
	initOrderHi   = 0x0f0e0d0c0b0a0908
)

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := uint64(cfg.SizeBytes / 64 / cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: sets - 1,
		ways:    cfg.Ways,
		tags:    make([]uint64, sets*uint64(cfg.Ways)),
		state:   make([]uint8, sets*uint64(cfg.Ways)),
		lru:     make([]uint8, sets*uint64(cfg.Ways)),
		order:   make([]uint8, sets*uint64(cfg.Ways)),
		fill:    make([]uint8, sets),
		last:    tagInvalid,
	}
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	for s := uint64(0); s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			c.lru[s*uint64(cfg.Ways)+uint64(w)] = uint8(w)
			c.order[s*uint64(cfg.Ways)+uint64(w)] = uint8(w)
		}
	}
	if cfg.Ways <= 8 {
		c.packed = true
		c.orderW = make([]uint64, sets)
		for s := range c.orderW {
			c.orderW[s] = initOrderWord
		}
	} else if cfg.Ways <= 16 {
		c.packed16 = true
		c.orderW = make([]uint64, sets)
		c.orderHi = make([]uint64, sets)
		for s := range c.orderW {
			c.orderW[s] = initOrderWord
			c.orderHi[s] = initOrderHi
		}
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in CPU cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, leaving content warm.
func (c *Cache) ResetStats() { c.stats.Reset() }

// Result reports the outcome of an Access.
type Result struct {
	Hit bool
	// Writeback is set when the allocation evicted a dirty block, whose
	// block number is WritebackBlock; the caller forwards it down the
	// hierarchy.
	Writeback      bool
	WritebackBlock uint64
}

// Access looks up the block (a block number, not a byte address), allocates
// on miss and applies LRU promotion. write marks the block dirty.
func (c *Cache) Access(block uint64, write bool) Result {
	if c.packed {
		return c.accessPacked(block, write)
	}
	if c.packed16 {
		return c.accessPacked16(block, write)
	}
	c.stats.Accesses++
	set := block & c.setMask
	base := set * uint64(c.ways)
	// Fast path: re-touching the set's MRU way. No promotion needed, and
	// block-repeat locality makes this the most common cache event.
	if m := base + uint64(c.order[base]); c.tags[m] == block {
		c.stats.Hits++
		if write {
			c.state[m] = stateDirty
		}
		return Result{Hit: true}
	}
	// Lookup: invalid ways hold tagInvalid, so one compare per way
	// suffices. The subslice lets the compiler drop per-way bounds checks.
	for w, tag := range c.tags[base : base+uint64(c.ways)] {
		if tag == block {
			i := base + uint64(w)
			c.stats.Hits++
			if write {
				c.state[i] = stateDirty
			}
			c.promote(base, uint64(w))
			return Result{Hit: true}
		}
	}
	// Miss: fill the next invalid way while the set has one (ways fill in
	// index order — exactly the way the original invalid-preferring scan
	// chose), else evict the way holding the LRU rank.
	var victim uint64
	if f := c.fill[set]; int(f) < c.ways {
		victim = uint64(f)
		c.fill[set] = f + 1
	} else {
		victim = uint64(c.order[base+uint64(c.ways-1)])
	}
	i := base + victim
	res := Result{}
	if c.state[i] == stateDirty {
		res.Writeback = true
		res.WritebackBlock = c.tags[i]
		c.stats.Writebacks++
	}
	c.tags[i] = block
	if write {
		c.state[i] = stateDirty
	} else {
		c.state[i] = stateClean
	}
	c.promote(base, victim)
	return res
}

// accessPacked is Access for packed caches: identical outcomes, with the
// set's LRU state read and rewritten as a single rank word.
func (c *Cache) accessPacked(block uint64, write bool) Result {
	if c.AccessHit(block, write) {
		return Result{Hit: true}
	}
	c.stats.Accesses++
	set := block & c.setMask
	base := set * uint64(c.ways)
	ow := c.orderW[set]
	var victim uint64
	if f := c.fill[set]; int(f) < c.ways {
		victim = uint64(f)
		c.fill[set] = f + 1
	} else {
		victim = ow >> (8 * uint(c.ways-1)) & 0xff
	}
	i := base + victim
	res := Result{}
	if c.state[i] == stateDirty {
		res.Writeback = true
		res.WritebackBlock = c.tags[i]
		c.stats.Writebacks++
	}
	c.tags[i] = block
	if write {
		c.state[i] = stateDirty
	} else {
		c.state[i] = stateClean
	}
	c.orderW[set] = promoteWord(ow, victim)
	c.last, c.lastAt = block, i
	return res
}

// AccessHit applies the access only if it hits. On a hit it does what
// Access does — counts the access and the hit, promotes the block to MRU
// and marks it dirty on a store — and returns true. On a miss it changes
// nothing, no count, no LRU move and no fill, and returns false, so a
// caller can probe ahead of its schedule without running the cache ahead
// of the accesses it has consumed. Packed caches, the L1's shape, take the
// fast path below, which answers a repeat of the previous access first;
// every other geometry checks for the block first.
func (c *Cache) AccessHit(block uint64, write bool) bool {
	if !c.packed {
		if !c.Contains(block) {
			return false
		}
		c.Access(block, write)
		return true
	}
	if block == c.last {
		c.stats.Accesses++
		c.stats.Hits++
		if write {
			c.state[c.lastAt] = stateDirty
		}
		return true
	}
	set := block & c.setMask
	base := set * uint64(c.ways)
	ow := c.orderW[set]
	// Fast path: re-touching the set's MRU way (rank word byte 0).
	if m := base + ow&0xff; c.tags[m] == block {
		c.stats.Accesses++
		c.stats.Hits++
		if write {
			c.state[m] = stateDirty
		}
		c.last, c.lastAt = block, m
		return true
	}
	for w, tag := range c.tags[base : base+uint64(c.ways)] {
		if tag == block {
			i := base + uint64(w)
			c.stats.Accesses++
			c.stats.Hits++
			if write {
				c.state[i] = stateDirty
			}
			c.orderW[set] = promoteWord(ow, uint64(w))
			c.last, c.lastAt = block, i
			return true
		}
	}
	return false
}

// accessPacked16 is Access for two-word packed caches: identical outcomes,
// with the set's LRU state split across a low (ranks 0-7) and a high
// (ranks 8-15) rank word.
func (c *Cache) accessPacked16(block uint64, write bool) Result {
	c.stats.Accesses++
	set := block & c.setMask
	base := set * uint64(c.ways)
	lo := c.orderW[set]
	// Fast path: re-touching the set's MRU way (low rank word byte 0).
	if m := base + lo&0xff; c.tags[m] == block {
		c.stats.Hits++
		if write {
			c.state[m] = stateDirty
		}
		return Result{Hit: true}
	}
	for w, tag := range c.tags[base : base+uint64(c.ways)] {
		if tag == block {
			i := base + uint64(w)
			c.stats.Hits++
			if write {
				c.state[i] = stateDirty
			}
			c.promoteWord16(set, lo, uint64(w))
			return Result{Hit: true}
		}
	}
	var victim uint64
	if f := c.fill[set]; int(f) < c.ways {
		victim = uint64(f)
		c.fill[set] = f + 1
	} else {
		victim = c.orderHi[set] >> (8 * uint(c.ways-9)) & 0xff
	}
	i := base + victim
	res := Result{}
	if c.state[i] == stateDirty {
		res.Writeback = true
		res.WritebackBlock = c.tags[i]
		c.stats.Writebacks++
	}
	c.tags[i] = block
	if write {
		c.state[i] = stateDirty
	} else {
		c.state[i] = stateClean
	}
	c.promoteWord16(set, lo, victim)
	return res
}

// promoteWord16 makes way the MRU of a two-word rank list. When way sits
// in the low word the move is promoteWord on that word alone; when it sits
// in the high word, the low word shifts up wholesale (its rank-7 byte
// spilling into the high word's rank-8 slot) and the high bytes below
// way's old rank slide up one.
func (c *Cache) promoteWord16(set uint64, lo, way uint64) {
	x := lo ^ way*lruOnes
	if z := (x - lruOnes) &^ x & lruHighs; z != 0 {
		p := uint(bits.TrailingZeros64(z)) &^ 7
		below := lo & (uint64(1)<<p - 1)
		c.orderW[set] = lo&^(uint64(1)<<(p+8)-1) | below<<8 | way
		return
	}
	hi := c.orderHi[set]
	x = hi ^ way*lruOnes
	p := uint(bits.TrailingZeros64((x-lruOnes)&^x&lruHighs)) &^ 7
	below := hi & (uint64(1)<<p - 1)
	c.orderHi[set] = hi&^(uint64(1)<<(p+8)-1) | below<<8 | lo>>56
	c.orderW[set] = lo<<8 | way
}

// lruOnes has the low bit of every byte set; lruHighs the high bit.
const (
	lruOnes  = 0x0101010101010101
	lruHighs = 0x8080808080808080
)

// promoteWord makes way the MRU of the packed rank word: its byte moves to
// rank 0 and the bytes below its old rank slide up one. The byte holding
// way is found with the zero-byte trick on ow XOR broadcast(way); borrows
// in the subtraction can only corrupt detection above the lowest zero
// byte, and the lowest match is the only match (ranks are a permutation
// and unused high bytes hold values >= ways), so TrailingZeros is exact.
func promoteWord(ow, way uint64) uint64 {
	x := ow ^ way*lruOnes
	p := uint(bits.TrailingZeros64((x-lruOnes)&^x&lruHighs)) &^ 7
	below := ow & (uint64(1)<<p - 1)
	return ow&^(uint64(1)<<(p+8)-1) | below<<8 | way
}

// Contains reports whether the block is present (no LRU side effects).
func (c *Cache) Contains(block uint64) bool {
	set := block & c.setMask
	base := set * uint64(c.ways)
	for _, tag := range c.tags[base : base+uint64(c.ways)] {
		if tag == block {
			return true
		}
	}
	return false
}

// promote makes way the MRU of its set: ranks below its old one slide up,
// realized as a shift of the rank-ordered way list. Re-promoting the MRU —
// the common case under block-repeat locality — is a no-op.
func (c *Cache) promote(base, way uint64) {
	old := uint64(c.lru[base+way])
	if old == 0 {
		return
	}
	copy(c.order[base+1:base+old+1], c.order[base:base+old])
	c.order[base] = uint8(way)
	for r := uint64(0); r <= old; r++ {
		c.lru[base+uint64(c.order[base+r])] = uint8(r)
	}
}

// syncLRUArrays materializes the packed rank words into the lru/order byte
// arrays — the checkpoint wire format and the shape the invariant checker
// reads. Unpacked caches maintain the arrays directly, so this is a no-op.
func (c *Cache) syncLRUArrays() {
	if !c.packed && !c.packed16 {
		return
	}
	for s := uint64(0); s < c.sets; s++ {
		base := s * uint64(c.ways)
		for r := 0; r < c.ways; r++ {
			var way uint8
			if r < 8 {
				way = uint8(c.orderW[s] >> (8 * uint(r)))
			} else {
				way = uint8(c.orderHi[s] >> (8 * uint(r-8)))
			}
			c.order[base+uint64(r)] = way
			c.lru[base+uint64(way)] = uint8(r)
		}
	}
}

// rebuildPacked derives the packed rank words from the order byte array
// after a checkpoint restore. Ranks beyond ways keep their initial
// non-aliasing filler bytes.
func (c *Cache) rebuildPacked() {
	if !c.packed && !c.packed16 {
		return
	}
	for s := uint64(0); s < c.sets; s++ {
		lo, hi := uint64(initOrderWord), uint64(initOrderHi)
		base := s * uint64(c.ways)
		for r := 0; r < c.ways; r++ {
			way := uint64(c.order[base+uint64(r)])
			if r < 8 {
				sh := 8 * uint(r)
				lo = lo&^(uint64(0xff)<<sh) | way<<sh
			} else {
				sh := 8 * uint(r-8)
				hi = hi&^(uint64(0xff)<<sh) | way<<sh
			}
		}
		c.orderW[s] = lo
		if c.packed16 {
			c.orderHi[s] = hi
		}
	}
}

// Sets returns the number of sets (exported for tests and sizing reports).
func (c *Cache) Sets() uint64 { return c.sets }

// checkLRUInvariant verifies each set's ranks are a permutation of
// 0..ways-1 and that the cached MRU way really holds rank 0. Exposed
// (unexported) for property tests.
func (c *Cache) checkLRUInvariant() error {
	c.syncLRUArrays()
	for s := uint64(0); s < c.sets; s++ {
		var seen uint64
		for w := 0; w < c.ways; w++ {
			r := c.lru[s*uint64(c.ways)+uint64(w)]
			if int(r) >= c.ways {
				return fmt.Errorf("set %d way %d: rank %d out of range", s, w, r)
			}
			if seen&(1<<r) != 0 {
				return fmt.Errorf("set %d: duplicate rank %d", s, r)
			}
			seen |= 1 << r
		}
		for r := 0; r < c.ways; r++ {
			w := c.order[s*uint64(c.ways)+uint64(r)]
			if int(w) >= c.ways || c.lru[s*uint64(c.ways)+uint64(w)] != uint8(r) {
				return fmt.Errorf("set %d rank %d: order way %d disagrees with lru ranks", s, r, w)
			}
		}
		for w := 0; w < c.ways; w++ {
			valid := c.state[s*uint64(c.ways)+uint64(w)] != stateInvalid
			if want := w < int(c.fill[s]); valid != want {
				return fmt.Errorf("set %d way %d: validity %v breaks the fill-order invariant (fill %d)", s, w, valid, c.fill[s])
			}
		}
	}
	return nil
}
