package mem

import "testing"

func TestUnisonGeometry960(t *testing.T) {
	g := UnisonGeometry(15, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SetsPerRow != 2 {
		t.Errorf("SetsPerRow = %d, want 2 (Figure 3: one 8KB row holds two 4-way sets of 960B pages)", g.SetsPerRow)
	}
	if got := g.DataBlocksPerRow(); got != 120 {
		t.Errorf("DataBlocksPerRow = %d, want 120 (Table II)", got)
	}
	if g.PageBytes() != 960 {
		t.Errorf("PageBytes = %d, want 960", g.PageBytes())
	}
}

func TestUnisonGeometry1984(t *testing.T) {
	g := UnisonGeometry(31, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SetsPerRow != 1 {
		t.Errorf("SetsPerRow = %d, want 1 (4 x 1984B pages fill a row)", g.SetsPerRow)
	}
	if got := g.DataBlocksPerRow(); got != 124 {
		t.Errorf("DataBlocksPerRow = %d, want 124 (Table II: 120-124)", got)
	}
}

func TestUnisonGeometryDirectMapped(t *testing.T) {
	g := UnisonGeometry(15, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.DataBlocksPerRow() < 100 {
		t.Errorf("direct-mapped 960B layout too sparse: %d blocks/row", g.DataBlocksPerRow())
	}
}

func TestAlloyGeometry(t *testing.T) {
	g := AlloyGeometry()
	if got := g.SetsPerRow; got != 113 { // 8192/72 = 113.7 -> 113; the paper rounds to 112 after row alignment
		if got != 112 {
			t.Errorf("Alloy TADs per row = %d, want ~112 (Table II)", got)
		}
	}
	if g.DataBlocksPerRow() < 110 || g.DataBlocksPerRow() > 114 {
		t.Errorf("Alloy DataBlocksPerRow = %d, want ~112", g.DataBlocksPerRow())
	}
}

func TestMetadataFractionTable2(t *testing.T) {
	// Table II: Unison's in-DRAM tag overhead is 3.1-6.2% of DRAM.
	for _, tc := range []struct {
		blocks int
		maxPct float64
	}{{31, 4.0}, {15, 7.0}} {
		g := UnisonGeometry(tc.blocks, 4)
		pct := g.MetadataFraction() * 100
		if pct <= 0 || pct > tc.maxPct {
			t.Errorf("UnisonGeometry(%d,4) metadata = %.1f%%, want (0, %.1f]", tc.blocks, pct, tc.maxPct)
		}
	}
}

func TestValidateRejectsOverflow(t *testing.T) {
	g := PageGeometry{PageBlocks: 64, Ways: 4, SetsPerRow: 2, MetadataBytesPerSet: 0}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a layout larger than a row")
	}
	g = PageGeometry{PageBlocks: 0, Ways: 1, SetsPerRow: 1}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted zero PageBlocks")
	}
}

func TestSRAMTagBytesScaling(t *testing.T) {
	// §II-B / Table II: an 8GB Footprint Cache needs ~50MB of SRAM tags.
	got := SRAMTagBytes(8<<30, 2048, 12)
	if got < 45<<20 || got > 55<<20 {
		t.Errorf("SRAMTagBytes(8GB, 2KB pages) = %d MB, want ~50MB", got>>20)
	}
	// And tags scale linearly with capacity.
	if 2*SRAMTagBytes(1<<30, 2048, 12) != SRAMTagBytes(2<<30, 2048, 12) {
		t.Error("SRAM tag size is not linear in capacity")
	}
}
