package config

import "testing"

func TestFCTagTableMatchesPaper(t *testing.T) {
	tbl := FCTagTable()
	if len(tbl) != 7 {
		t.Fatalf("Table IV has 7 columns, got %d", len(tbl))
	}
	if tbl[0].CacheBytes != 128<<20 || tbl[0].LatencyCycles != 6 {
		t.Errorf("first column = %+v", tbl[0])
	}
	if tbl[6].CacheBytes != 8<<30 || tbl[6].TagMB != 50 || tbl[6].LatencyCycles != 48 {
		t.Errorf("last column = %+v", tbl[6])
	}
	// Latency and size must grow monotonically with capacity (§II-B).
	for i := 1; i < len(tbl); i++ {
		if tbl[i].LatencyCycles <= tbl[i-1].LatencyCycles || tbl[i].TagMB <= tbl[i-1].TagMB {
			t.Errorf("Table IV not monotone at %d", i)
		}
	}
}

func TestFCTagLatencyLookup(t *testing.T) {
	cases := []struct {
		bytes uint64
		want  uint64
	}{
		{64 << 20, 6},
		{128 << 20, 6},
		{129 << 20, 9},
		{1 << 30, 16},
		{3 << 30, 36},
		{8 << 30, 48},
		{16 << 30, 48},
	}
	for _, c := range cases {
		if got := FCTagLatency(c.bytes); got != c.want {
			t.Errorf("FCTagLatency(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestFCTagMB pins Table IV's tag-array sizes, up to the paper's
// impractical 50 MB SRAM array at 8 GB.
func TestFCTagMB(t *testing.T) {
	want := []float64{0.8, 1.58, 3.12, 6.2, 12.5, 25, 50}
	for i, p := range FCTagTable() {
		if p.TagMB != want[i] {
			t.Errorf("Table IV at %d MB: tag array %v MB, want %v", p.CacheBytes>>20, p.TagMB, want[i])
		}
	}
}

func TestSweeps(t *testing.T) {
	cs := CloudSuiteSizes()
	if len(cs) != 4 || cs[0] != 128<<20 || cs[3] != 1<<30 {
		t.Errorf("CloudSuiteSizes = %v", cs)
	}
	th := TPCHSizes()
	if len(th) != 4 || th[0] != 1<<30 || th[3] != 8<<30 {
		t.Errorf("TPCHSizes = %v", th)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := []struct {
		b    uint64
		want string
	}{
		{128 << 20, "128MB"},
		{1 << 30, "1GB"},
		{8 << 30, "8GB"},
		{1536 << 20, "1536MB"},
		{64, "64B"},
		{0, "0B"},
	}
	for _, c := range cases {
		if got := SizeLabel(c.b); got != c.want {
			t.Errorf("SizeLabel(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"128MB", 128 << 20},
		{"1GB", 1 << 30},
		{"8g", 8 << 30},
		{"64m", 64 << 20},
		{"4KB", 4 << 10},
		{" 512mb ", 512 << 20},
		{"8192", 8192},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "abc", "12x34", "GB", "-1GB", "0", "20000000000G", "99999999999999999999999999"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}
