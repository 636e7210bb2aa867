package unisoncache

import (
	"testing"

	"unisoncache/internal/dram"
)

// CheckConservation fails t unless res obeys the simulator's three
// conservation laws and its bus bound: the design's off-chip byte
// counters equal the bytes the off-chip controller moved, the design
// absorbed every L2 writeback, each DRAM part's column accesses either
// hit the open row or activated one, and no part kept its data buses busy
// for more than its channel count times the run's cycles. It is exported
// from a test file so the external-package golden walls can call it on
// their Results too.
func CheckConservation(t testing.TB, name string, res Result) {
	t.Helper()
	for _, p := range []struct {
		part string
		s    dram.Stats
		cfg  dram.Config
	}{{"stacked", res.Stacked, dram.StackedConfig()}, {"off-chip", res.Offchip, dram.OffchipConfig()}} {
		if s := p.s; s.RowHits+s.Activations != s.Reads+s.Writes {
			t.Errorf("%s: %s part counted %d row hits + %d activations for %d reads + %d writes",
				name, p.part, s.RowHits, s.Activations, s.Reads, s.Writes)
		}
		if bound := uint64(p.cfg.Org.Channels) * res.Cycles; p.s.BusBusyCPU > bound {
			t.Errorf("%s: %s part kept its buses busy %d cycles, over %d channels × %d cycles = %d",
				name, p.part, p.s.BusBusyCPU, p.cfg.Org.Channels, res.Cycles, bound)
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
