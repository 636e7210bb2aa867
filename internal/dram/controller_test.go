package dram

import (
	"testing"
	"testing/quick"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := StackedConfig().Validate(); err != nil {
		t.Errorf("StackedConfig invalid: %v", err)
	}
	if err := OffchipConfig().Validate(); err != nil {
		t.Errorf("OffchipConfig invalid: %v", err)
	}
	bad := StackedConfig()
	bad.Timing.RC = 1
	if err := bad.Validate(); err == nil {
		t.Error("tRC < tRAS+tRP accepted")
	}
	bad = StackedConfig()
	bad.Org.RowBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("non-block-multiple RowBytes accepted")
	}
	bad = StackedConfig()
	bad.DRAMHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad = StackedConfig()
	bad.Timing.FAW = 1
	if err := bad.Validate(); err == nil {
		t.Error("tFAW < tRRD accepted")
	}
	bad = StackedConfig()
	bad.Org.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestToCPUConversion(t *testing.T) {
	s := StackedConfig() // 1.6GHz DRAM, 3GHz CPU -> x1.875
	if got := s.ToCPU(0); got != 0 {
		t.Errorf("ToCPU(0) = %d", got)
	}
	if got := s.ToCPU(8); got != 15 {
		t.Errorf("ToCPU(8) = %d, want 15 (8*1.875)", got)
	}
	if got := s.ToCPU(11); got != 21 {
		t.Errorf("ToCPU(11) = %d, want ceil(20.625)=21", got)
	}
	o := OffchipConfig() // 800MHz -> x3.75
	if got := o.ToCPU(4); got != 15 {
		t.Errorf("offchip ToCPU(4) = %d, want 15", got)
	}
}

func TestBurstCPU(t *testing.T) {
	s := StackedConfig() // 32B per bus clock, ~2 CPU cycles per bus clock
	// The paper: 32B of tags = two bursts over the 128-bit bus = one bus
	// cycle = two CPU cycles.
	if got := s.BurstCPU(32); got != 2 {
		t.Errorf("stacked BurstCPU(32) = %d, want 2 (paper §III-A.6)", got)
	}
	if got := s.BurstCPU(64); got != 4 {
		t.Errorf("stacked BurstCPU(64) = %d, want 4", got)
	}
	if got := s.BurstCPU(0); got != 0 {
		t.Errorf("BurstCPU(0) = %d", got)
	}
	if got := s.BurstCPU(1); got != 2 {
		t.Errorf("BurstCPU(1) = %d, want one full bus clock", got)
	}
	o := OffchipConfig() // 16B per bus clock at 800MHz -> 64B = 4 clocks = 15 CPU cycles
	if got := o.BurstCPU(64); got != 15 {
		t.Errorf("offchip BurstCPU(64) = %d, want 15", got)
	}
}

func TestRowMissThenHitLatency(t *testing.T) {
	c := mustController(t, StackedConfig())
	// Cold access: ACT (tRCD) + CAS before data.
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 7, Bytes: 64, At: 100})
	if r1.RowHit {
		t.Error("first access reported a row hit")
	}
	wantData := uint64(100) + c.tRCD + c.tCAS
	if r1.DataAt != wantData {
		t.Errorf("cold DataAt = %d, want %d", r1.DataAt, wantData)
	}
	if r1.Done != wantData+c.cfg.BurstCPU(64) {
		t.Errorf("cold Done = %d, want %d", r1.Done, wantData+c.cfg.BurstCPU(64))
	}

	// Same row, later: row hit, only CAS.
	r2 := c.Do(Request{Channel: 0, Bank: 0, Row: 7, Bytes: 64, At: r1.Done + 10})
	if !r2.RowHit {
		t.Error("same-row access missed the row buffer")
	}
	if got := r2.DataAt - (r1.Done + 10); got != c.tCAS {
		t.Errorf("row-hit latency = %d, want tCAS = %d", got, c.tCAS)
	}
}

func TestRowConflictLatency(t *testing.T) {
	c := mustController(t, StackedConfig())
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	// Conflicting row long after tRAS has elapsed: PRE + ACT + CAS.
	at := r1.Done + c.tRAS + c.tRC
	r2 := c.Do(Request{Channel: 0, Bank: 0, Row: 2, Bytes: 64, At: at})
	if r2.RowHit {
		t.Error("conflicting row reported a hit")
	}
	want := at + c.tRP + c.tRCD + c.tCAS
	if r2.DataAt != want {
		t.Errorf("conflict DataAt = %d, want %d (PRE+ACT+CAS)", r2.DataAt, want)
	}
}

func TestTRASGatesEarlyPrecharge(t *testing.T) {
	c := mustController(t, StackedConfig())
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	_ = r1
	// Immediately conflict: the PRE must wait until ACT+tRAS.
	r2 := c.Do(Request{Channel: 0, Bank: 0, Row: 2, Bytes: 64, At: 1})
	minData := c.tRAS + c.tRP + c.tRCD + c.tCAS // ACT at 0
	if r2.DataAt < minData {
		t.Errorf("early conflict DataAt = %d, violates tRAS+tRP+tRCD+tCAS = %d", r2.DataAt, minData)
	}
}

func TestBankParallelism(t *testing.T) {
	c := mustController(t, StackedConfig())
	// Two cold accesses to different banks at the same cycle: the second
	// pays tRRD on the ACT but not a full serialization.
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	r2 := c.Do(Request{Channel: 0, Bank: 1, Row: 1, Bytes: 64, At: 0})
	if r2.DataAt >= r1.Done+c.tRCD {
		t.Errorf("bank parallelism broken: r2.DataAt=%d vs r1.Done=%d", r2.DataAt, r1.Done)
	}
	if r2.DataAt < r1.DataAt {
		t.Error("bus should serialize the two bursts")
	}
}

func TestChannelIndependence(t *testing.T) {
	c := mustController(t, StackedConfig())
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	r2 := c.Do(Request{Channel: 1, Bank: 0, Row: 1, Bytes: 64, At: 0})
	if r1.DataAt != r2.DataAt {
		t.Errorf("independent channels should have identical timing: %d vs %d", r1.DataAt, r2.DataAt)
	}
}

func TestTFAWWindow(t *testing.T) {
	c := mustController(t, StackedConfig())
	// Five cold ACTs to five banks at cycle 0: the fifth must wait for the
	// four-activate window.
	var last Result
	for b := 0; b < 5; b++ {
		last = c.Do(Request{Channel: 0, Bank: b, Row: 1, Bytes: 64, At: 0})
	}
	// The 5th ACT cannot start before firstACT + tFAW = tFAW.
	minData := c.tFAW + c.tRCD + c.tCAS
	if last.DataAt < minData {
		t.Errorf("5th ACT DataAt = %d, violates tFAW floor %d", last.DataAt, minData)
	}
	if c.Stats().Activations != 5 {
		t.Errorf("Activations = %d, want 5", c.Stats().Activations)
	}
}

func TestWriteRecoveryGatesConflict(t *testing.T) {
	c := mustController(t, StackedConfig())
	w := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, Write: true, At: 0})
	// A conflicting row right after the write: PRE waits for write recovery.
	r := c.Do(Request{Channel: 0, Bank: 0, Row: 2, Bytes: 64, At: w.Done})
	minData := w.Done + c.tWR + c.tRP + c.tRCD + c.tCAS
	if r.DataAt < minData {
		t.Errorf("post-write conflict DataAt = %d, violates tWR chain %d", r.DataAt, minData)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	c := mustController(t, StackedConfig())
	w := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, Write: true, At: 0})
	r := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: w.Done})
	if !r.RowHit {
		t.Fatal("expected row hit")
	}
	if r.DataAt < w.Done+c.tWTR+c.tCAS {
		t.Errorf("read after write DataAt = %d, violates tWTR %d", r.DataAt, w.Done+c.tWTR+c.tCAS)
	}
}

func TestBusSerializesLargeBursts(t *testing.T) {
	c := mustController(t, StackedConfig())
	// Two row hits back to back; the second burst starts after the first
	// finishes on the bus.
	c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	r1 := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 960, At: 200})
	r2 := c.Do(Request{Channel: 0, Bank: 1, Row: 1, Bytes: 64, At: 200})
	if r2.DataAt < r1.Done {
		t.Errorf("bus overlap: burst2 data at %d before burst1 done %d", r2.DataAt, r1.Done)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := mustController(t, StackedConfig())
	c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 0})
	c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 128, At: 1000})
	c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, Write: true, At: 2000})
	s := c.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
	if s.RowHits != 2 {
		t.Errorf("RowHits = %d, want 2", s.RowHits)
	}
	if s.BytesRead != 192 || s.BytesWritten != 64 {
		t.Errorf("Bytes = %d/%d, want 192/64", s.BytesRead, s.BytesWritten)
	}
	if s.Activations != 1 {
		t.Errorf("Activations = %d, want 1", s.Activations)
	}
	if got := s.RowHitRate(); got != 2.0/3 {
		t.Errorf("RowHitRate = %v", got)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
	// Row buffer must survive the reset.
	r := c.Do(Request{Channel: 0, Bank: 0, Row: 1, Bytes: 64, At: 3000})
	if !r.RowHit {
		t.Error("ResetStats disturbed bank state")
	}
}

func TestRowHitRateEmpty(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Error("empty RowHitRate should be 0")
	}
}

func TestMapAddrPartitions(t *testing.T) {
	c := mustController(t, StackedConfig())
	seen := map[[3]uint64]bool{}
	for a := uint64(0); a < 64*8192; a += 8192 {
		ch, bk, row := c.MapAddr(a)
		key := [3]uint64{uint64(ch), uint64(bk), row}
		if seen[key] {
			t.Fatalf("MapAddr collision for addr %d: %v", a, key)
		}
		seen[key] = true
	}
}

func TestMapAddrInRange(t *testing.T) {
	c := mustController(t, OffchipConfig())
	f := func(a uint64) bool {
		ch, bk, _ := c.MapAddr(a)
		return ch >= 0 && ch < c.cfg.Org.Channels && bk >= 0 && bk < c.cfg.Org.Ranks*c.cfg.Org.Banks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapAddrSameRowSameBank(t *testing.T) {
	c := mustController(t, StackedConfig())
	// All addresses within one 8KB row map to the same (ch,bank,row).
	ch0, bk0, row0 := c.MapAddr(16384)
	for off := uint64(0); off < 8192; off += 64 {
		ch, bk, row := c.MapAddr(16384 + off)
		if ch != ch0 || bk != bk0 || row != row0 {
			t.Fatalf("intra-row address %d split across banks", 16384+off)
		}
	}
}

func TestTimingMonotonicity(t *testing.T) {
	// Later arrivals never finish earlier, for a fixed single-bank stream.
	c1 := mustController(t, StackedConfig())
	c2 := mustController(t, StackedConfig())
	r1 := c1.Do(Request{Channel: 0, Bank: 0, Row: 3, Bytes: 64, At: 100})
	r2 := c2.Do(Request{Channel: 0, Bank: 0, Row: 3, Bytes: 64, At: 200})
	if r2.Done < r1.Done {
		t.Error("later arrival finished earlier on identical state")
	}
	if r2.Done-r2.DataAt != r1.Done-r1.DataAt {
		t.Error("burst length depends on arrival time")
	}
}

func TestDoPanicsOutOfRange(t *testing.T) {
	c := mustController(t, StackedConfig())
	for _, r := range []Request{
		{Channel: -1, Bank: 0},
		{Channel: 99, Bank: 0},
		{Channel: 0, Bank: -1},
		{Channel: 0, Bank: 99},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Do(%+v) did not panic", r)
				}
			}()
			c.Do(r)
		}()
	}
}

func TestAccessUsesMapping(t *testing.T) {
	c := mustController(t, StackedConfig())
	res1 := c.Access(0, 0, 64, false)
	res2 := c.Access(32, res1.Done, 64, false) // same row
	if !res2.RowHit {
		t.Error("Access to same row did not hit row buffer")
	}
}

func BenchmarkControllerRowHits(b *testing.B) {
	c, _ := NewController(StackedConfig())
	at := uint64(0)
	for i := 0; i < b.N; i++ {
		r := c.Do(Request{Channel: i & 3, Bank: 0, Row: 5, Bytes: 64, At: at})
		at = r.Done
	}
}

func BenchmarkControllerRowConflicts(b *testing.B) {
	c, _ := NewController(StackedConfig())
	at := uint64(0)
	for i := 0; i < b.N; i++ {
		r := c.Do(Request{Channel: 0, Bank: i & 7, Row: uint64(i), Bytes: 64, At: at})
		at = r.Done
	}
}
