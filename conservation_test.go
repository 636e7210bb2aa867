package unisoncache

import "testing"

// CheckConservation fails t unless res obeys the simulator's two
// conservation laws: the design's off-chip byte counters equal the bytes
// the off-chip controller moved, and the design absorbed every L2
// writeback. It is exported from a test file so the external-package
// golden walls can call it on their Results too.
func CheckConservation(t testing.TB, name string, res Result) {
	t.Helper()
	if d, o := res.Design, res.Offchip; d.OffchipReadBytes != o.BytesRead || d.OffchipWriteBytes != o.BytesWritten {
		t.Errorf("%s: design counted %d B read / %d B written off-chip, controller moved %d / %d",
			name, d.OffchipReadBytes, d.OffchipWriteBytes, o.BytesRead, o.BytesWritten)
	}
	if res.Design.Writes != res.L2.Writebacks {
		t.Errorf("%s: design counted %d writes, L2 wrote back %d", name, res.Design.Writes, res.L2.Writebacks)
	}
}
