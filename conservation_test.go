package unisoncache

import (
	"testing"

	"unisoncache/internal/dram"
)

// CheckConservation fails t unless res obeys the simulator's three
// conservation laws: the design's off-chip byte counters equal the bytes
// the off-chip controller moved, the design absorbed every L2 writeback,
// and each DRAM part's column accesses either hit the open row or
// activated one. It is exported from a test file so the external-package
// golden walls can call it on their Results too.
func CheckConservation(t testing.TB, name string, res Result) {
	t.Helper()
	for _, p := range []struct {
		part string
		s    dram.Stats
	}{{"stacked", res.Stacked}, {"off-chip", res.Offchip}} {
		if s := p.s; s.RowHits+s.Activations != s.Reads+s.Writes {
			t.Errorf("%s: %s part counted %d row hits + %d activations for %d reads + %d writes",
				name, p.part, s.RowHits, s.Activations, s.Reads, s.Writes)
		}
	}
	if d, o := res.Design, res.Offchip; d.OffchipReadBytes != o.BytesRead || d.OffchipWriteBytes != o.BytesWritten {
		t.Errorf("%s: design counted %d B read / %d B written off-chip, controller moved %d / %d",
			name, d.OffchipReadBytes, d.OffchipWriteBytes, o.BytesRead, o.BytesWritten)
	}
	if res.Design.Writes != res.L2.Writebacks {
		t.Errorf("%s: design counted %d writes, L2 wrote back %d", name, res.Design.Writes, res.L2.Writebacks)
	}
}
