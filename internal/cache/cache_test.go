package cache

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"unisoncache/internal/checkpoint"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	// 4 sets x 2 ways x 64B = 512B.
	return mustCache(t, Config{Name: "t", SizeBytes: 512, Ways: 2, Latency: 2})
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Name: "l1", SizeBytes: 64 << 10, Ways: 8, Latency: 2},
		{Name: "l2", SizeBytes: 4 << 20, Ways: 16, Latency: 13},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 1},
		{Name: "negways", SizeBytes: 512, Ways: -1},
		{Name: "notpow2sets", SizeBytes: 3 * 64, Ways: 1},
		{Name: "indivisible", SizeBytes: 640, Ways: 3},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", cfg.Name)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if r := c.Access(100, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(100, false); !r.Hit {
		t.Error("second access missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses() != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways; blocks 0,4,8 share set 0
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 is MRU, 4 is LRU
	c.Access(8, false) // evicts 4
	if !c.Contains(0) {
		t.Error("MRU block evicted")
	}
	if c.Contains(4) {
		t.Error("LRU block survived")
	}
	if !c.Contains(8) {
		t.Error("new block missing")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small(t)
	c.Access(0, true) // dirty
	c.Access(4, false)
	r := c.Access(8, false) // evicts 0 (LRU, dirty)
	if !r.Writeback || r.WritebackBlock != 0 {
		t.Errorf("expected writeback of block 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(4, false)
	r := c.Access(8, false)
	if r.Writeback {
		t.Error("clean eviction produced a writeback")
	}
}

func TestWriteHitDirties(t *testing.T) {
	c := small(t)
	c.Access(0, false) // clean
	c.Access(0, true)  // now dirty
	c.Access(4, false)
	r := c.Access(8, false)
	if !r.Writeback || r.WritebackBlock != 0 {
		t.Errorf("write-hit did not mark dirty: %+v", r)
	}
}

func TestWritebackClearsDirty(t *testing.T) {
	c := small(t)
	c.Access(0, true)
	c.Access(4, false)
	c.Access(8, false) // writes back 0
	// Refill 0 clean, then evict again: no writeback this time.
	c.Access(0, false)
	c.Access(12, false)
	wbBefore := c.Stats().Writebacks
	c.Access(4, false) // evicts someone; 0 or 8/12 depending on LRU, do a full cycle
	c.Access(8, false)
	c.Access(12, false)
	if c.Stats().Writebacks != wbBefore {
		t.Errorf("stale dirty state caused writeback: %d -> %d", wbBefore, c.Stats().Writebacks)
	}
}

func TestContainsNoSideEffects(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(4, false) // 4 MRU, 0 LRU
	if c.Contains(0) != true {
		t.Fatal("Contains(0) false")
	}
	// Contains must not promote 0; inserting 8 should still evict 0.
	c.Access(8, false)
	if c.Contains(0) {
		t.Error("Contains promoted the block")
	}
	if c.Contains(999) {
		t.Error("Contains on absent block")
	}
	a := c.Stats().Accesses
	c.Contains(8)
	if c.Stats().Accesses != a {
		t.Error("Contains counted as access")
	}
}

func TestSetIsolation(t *testing.T) {
	c := small(t)
	// Fill set 0 far past capacity; set 1 content must be untouched.
	c.Access(1, false) // set 1
	for i := uint64(0); i < 100; i++ {
		c.Access(i*4, false) // all set 0
	}
	if !c.Contains(1) {
		t.Error("traffic in set 0 evicted set 1 block")
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	c := mustCache(t, Config{Name: "p", SizeBytes: 4096, Ways: 4, Latency: 1})
	f := func(blocks []uint16, writes []bool) bool {
		for i, b := range blocks {
			w := i < len(writes) && writes[i]
			c.Access(uint64(b), w)
		}
		return c.checkLRUInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHitAfterAnyAccessSequenceProperty(t *testing.T) {
	// Immediately re-accessing the last touched block always hits.
	c := mustCache(t, Config{Name: "p", SizeBytes: 2048, Ways: 2, Latency: 1})
	f := func(blocks []uint16) bool {
		for _, b := range blocks {
			c.Access(uint64(b), false)
			if r := c.Access(uint64(b), false); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	// A working set exactly equal to capacity never misses after warmup.
	c := mustCache(t, Config{Name: "fit", SizeBytes: 8192, Ways: 4, Latency: 1})
	blocks := c.Sets() * 4
	for round := 0; round < 3; round++ {
		for b := uint64(0); b < blocks; b++ {
			c.Access(b, false)
		}
	}
	c.ResetStats()
	for b := uint64(0); b < blocks; b++ {
		if r := c.Access(b, false); !r.Hit {
			t.Fatalf("block %d missed with a capacity-fitting working set", b)
		}
	}
}

func TestThrashingWorkingSetMisses(t *testing.T) {
	// A working set of 2x capacity accessed cyclically with LRU always misses.
	c := mustCache(t, Config{Name: "thrash", SizeBytes: 1024, Ways: 2, Latency: 1})
	blocks := c.Sets() * 4 // 2x ways per set
	for round := 0; round < 4; round++ {
		for b := uint64(0); b < blocks; b++ {
			c.Access(b, false)
		}
	}
	c.ResetStats()
	for b := uint64(0); b < blocks; b++ {
		c.Access(b, false)
	}
	if c.Stats().Hits != 0 {
		t.Errorf("cyclic over-capacity scan hit %d times under LRU", c.Stats().Hits)
	}
}

func TestStatsResetKeepsContent(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats did not zero")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("ResetStats lost cache content")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Error("empty HitRatio")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRatio() != 0.75 {
		t.Errorf("HitRatio = %v", s.HitRatio())
	}
}

func TestHitRatio(t *testing.T) {
	tests := []struct {
		name string
		s    Stats
		want float64
	}{
		{"zero accesses", Stats{}, 0},
		{"zero accesses nonzero writebacks", Stats{Writebacks: 7}, 0},
		{"all hits", Stats{Accesses: 8, Hits: 8}, 1},
		{"all misses", Stats{Accesses: 5}, 0},
		{"mixed", Stats{Accesses: 4, Hits: 3}, 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.s.HitRatio()
			if math.IsNaN(got) {
				t.Fatalf("HitRatio(%+v) is NaN", tt.s)
			}
			if got != tt.want {
				t.Errorf("HitRatio(%+v) = %v, want %v", tt.s, got, tt.want)
			}
		})
	}
}

func TestTableIIIL1L2Shapes(t *testing.T) {
	l1 := mustCache(t, Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, Latency: 2})
	if l1.Sets() != 128 {
		t.Errorf("L1 sets = %d, want 128", l1.Sets())
	}
	l2 := mustCache(t, Config{Name: "L2", SizeBytes: 4 << 20, Ways: 16, Latency: 13})
	if l2.Sets() != 4096 {
		t.Errorf("L2 sets = %d, want 4096", l2.Sets())
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, _ := New(Config{Name: "b", SizeBytes: 4 << 20, Ways: 16, Latency: 13})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&8191], i&15 == 0)
	}
}

// TestPackedMatchesGeneric drives a packed cache and a generic (byte-array
// LRU) cache of identical geometry through the same random access stream:
// every Result and every counter must agree at every step, and both must
// hold the LRU invariant afterwards. This is the bit-identity wall of the
// rank-word promote.
func TestPackedMatchesGeneric(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 12, 16} {
		cfg := Config{Name: "t", SizeBytes: 64 * 8 * ways, Ways: ways, Latency: 2}
		packed := mustCache(t, cfg)
		generic := mustCache(t, cfg)
		generic.packed = false // force the byte-array reference path
		generic.packed16 = false
		if !packed.packed && !packed.packed16 {
			t.Fatalf("ways=%d: expected packed representation", ways)
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 60_000; i++ {
			block := uint64(rng.Intn(64))
			write := rng.Intn(4) == 0
			p := packed.Access(block, write)
			g := generic.Access(block, write)
			if p != g {
				t.Fatalf("ways=%d access %d (block %d write %v): packed %+v generic %+v", ways, i, block, write, p, g)
			}
		}
		if packed.Stats() != generic.Stats() {
			t.Fatalf("ways=%d: stats diverged: %+v vs %+v", ways, packed.Stats(), generic.Stats())
		}
		if err := packed.checkLRUInvariant(); err != nil {
			t.Fatalf("ways=%d packed: %v", ways, err)
		}
		if err := generic.checkLRUInvariant(); err != nil {
			t.Fatalf("ways=%d generic: %v", ways, err)
		}
	}
}

// savedState is c's checkpoint payload: its complete content, LRU order,
// fill counts and counters.
func savedState(t *testing.T, c *Cache) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	c.SaveState(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return w.Bytes()
}

// TestAccessHitMatchesAccess drives one cache with AccessHit, falling back
// to Access when the probe misses, beside one driven by Access alone, for
// every layout (packed, two-word packed, byte arrays). Every outcome and
// the final state must agree, and a probe that misses must leave the state
// byte-identical: no count, no LRU move, no fill. Half the accesses repeat
// the one before, which the packed layout answers from memory.
func TestAccessHitMatchesAccess(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 12, 16, 32} {
		cfg := Config{Name: "t", SizeBytes: 64 * 8 * ways, Ways: ways, Latency: 2}
		probed, plain := mustCache(t, cfg), mustCache(t, cfg)
		rng := rand.New(rand.NewSource(int64(ways)))
		block := uint64(0)
		for i := 0; i < 20_000; i++ {
			if rng.Intn(2) == 0 {
				block = uint64(rng.Intn(16 * ways))
			}
			write := rng.Intn(4) == 0
			want := plain.Access(block, write)
			before := savedState(t, probed)
			got := Result{Hit: probed.AccessHit(block, write)}
			if !got.Hit {
				if !bytes.Equal(savedState(t, probed), before) {
					t.Fatalf("ways=%d access %d (block %d): a probe that missed changed the cache", ways, i, block)
				}
				got = probed.Access(block, write)
			}
			if got != want {
				t.Fatalf("ways=%d access %d (block %d write %v): probed %+v, Access alone %+v", ways, i, block, write, got, want)
			}
		}
		if !bytes.Equal(savedState(t, probed), savedState(t, plain)) {
			t.Fatalf("ways=%d: the probed cache's state diverged from Access alone", ways)
		}
		if err := probed.checkLRUInvariant(); err != nil {
			t.Fatalf("ways=%d: %v", ways, err)
		}
	}
}

// TestAccessHitAfterLoadState: a restore replaces the content, so a probe
// of the block the cache touched last answers from the restored state.
func TestAccessHitAfterLoadState(t *testing.T) {
	cfg := Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, Latency: 2}
	empty := savedState(t, mustCache(t, cfg))
	c := mustCache(t, cfg)
	c.Access(42, false)
	if err := c.LoadState(checkpoint.NewReader(empty)); err != nil {
		t.Fatal(err)
	}
	if c.AccessHit(42, false) {
		t.Fatal("a probe hit a block the restored state does not hold")
	}
}
