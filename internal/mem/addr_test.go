package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrBlock(t *testing.T) {
	cases := []struct {
		a    Addr
		want uint64
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{128, 2},
		{8191, 127},
	}
	for _, c := range cases {
		if got := c.a.Block(); got != c.want {
			t.Errorf("Addr(%d).Block() = %d, want %d", c.a, got, c.want)
		}
	}
}

// TestBlockAligned: an address's block number maps back to the start of
// its block, the address a write-back of that block carries.
func TestBlockAligned(t *testing.T) {
	f := func(a uint64) bool {
		al := uint64(BlockAddr(Addr(a).Block()))
		return al%BlockSize == 0 && al <= a && a-al < BlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	f := func(b uint64) bool {
		b &= (1 << 58) - 1 // keep the shift in range
		return BlockAddr(b).Block() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockOfPage(t *testing.T) {
	// 960 B page = 15 blocks.
	page, block := BlockOfPage(Addr(960), 15)
	if page != 1 || block != 0 {
		t.Errorf("BlockOfPage(960,15) = (%d,%d), want (1,0)", page, block)
	}
	page, block = BlockOfPage(Addr(959), 15)
	if page != 0 || block != 14 {
		t.Errorf("BlockOfPage(959,15) = (%d,%d), want (0,14)", page, block)
	}
}

func TestBlockOfPageMatchesDivider(t *testing.T) {
	dv := NewDivider(4)
	f := func(a uint64) bool {
		p1, b1 := BlockOfPage(Addr(a), 15)
		p2, b2 := dv.DivMod(Addr(a).Block())
		return p1 == p2 && b1 == b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
