package sim

import (
	"testing"

	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/trace"
)

func testSources(t *testing.T, cores int, workload string) []trace.Source {
	t.Helper()
	sources := make([]trace.Source, cores)
	for i := range sources {
		s, err := trace.NewStream(trace.Profiles()[workload], 42, i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = s
	}
	return sources
}

func testMachine(t *testing.T, cfg Config, workload string, design func(s, o *dram.Controller) dramcache.Design) *Machine {
	t.Helper()
	s, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, testSources(t, cfg.Cores, workload), design(s, o), s, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func noneDesign(s, o *dram.Controller) dramcache.Design  { return dramcache.NewNone(o) }
func idealDesign(s, o *dram.Controller) dramcache.Design { return dramcache.NewIdeal(s) }

func TestDefaultConfigMatchesTableIII(t *testing.T) {
	cfg := Default()
	if cfg.Cores != 16 {
		t.Errorf("cores = %d, want 16", cfg.Cores)
	}
	if cfg.L1.SizeBytes != 64<<10 || cfg.L1.Latency != 2 {
		t.Errorf("L1 = %+v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 4<<20 || cfg.L2.Ways != 16 || cfg.L2.Latency != 13 {
		t.Errorf("L2 = %+v", cfg.L2)
	}
	if cfg.WarmupFrac < 0.6 || cfg.WarmupFrac > 0.7 {
		t.Errorf("warmup fraction = %v, want ~2/3", cfg.WarmupFrac)
	}
}

func TestNewValidation(t *testing.T) {
	s, _ := dram.NewController(dram.StackedConfig())
	o, _ := dram.NewController(dram.OffchipConfig())
	cfg := Default()
	cfg.Cores = 2
	if _, err := New(cfg, nil, dramcache.NewNone(o), s, o); err == nil {
		t.Error("nil source slice accepted")
	}
	if _, err := New(cfg, testSources(t, 1, "web-search"), dramcache.NewNone(o), s, o); err == nil {
		t.Error("short source slice accepted")
	}
	if _, err := New(cfg, []trace.Source{nil, nil}, dramcache.NewNone(o), s, o); err == nil {
		t.Error("nil source entries accepted")
	}
	cfg.Cores = 0
	if _, err := New(cfg, nil, dramcache.NewNone(o), s, o); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = Default()
	cfg.Cores = 1
	cfg.WarmupFrac = 1.0
	if _, err := New(cfg, testSources(t, 1, "web-search"), dramcache.NewNone(o), s, o); err == nil {
		t.Error("WarmupFrac=1 accepted")
	}
}

func TestRunProducesWork(t *testing.T) {
	cfg := Default()
	cfg.Cores = 4
	m := testMachine(t, cfg, "web-serving", noneDesign)
	res := m.Run(5000)
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty results: %+v", res)
	}
	if res.UIPC <= 0 || res.UIPC > float64(cfg.Cores) {
		t.Errorf("UIPC = %v out of (0,%d]", res.UIPC, cfg.Cores)
	}
	if res.L1HitRate <= 0 || res.L1HitRate >= 1 {
		t.Errorf("L1 hit rate = %v", res.L1HitRate)
	}
	if res.Design.Reads == 0 {
		t.Error("no demand reads reached the DRAM level")
	}
	if res.OffchipBytesPerKI <= 0 {
		t.Error("no off-chip traffic recorded")
	}
}

func TestRunZeroAccesses(t *testing.T) {
	cfg := Default()
	cfg.Cores = 1
	m := testMachine(t, cfg, "web-search", noneDesign)
	if res := m.Run(0); res.Instructions != 0 {
		t.Error("zero-access run produced work")
	}
}

func TestIdealOutperformsBaseline(t *testing.T) {
	cfg := Default()
	cfg.Cores = 4
	base := testMachine(t, cfg, "data-serving", noneDesign).Run(8000)
	ideal := testMachine(t, cfg, "data-serving", idealDesign).Run(8000)
	if ideal.UIPC <= base.UIPC {
		t.Errorf("ideal UIPC %v <= baseline %v", ideal.UIPC, base.UIPC)
	}
	if ideal.OffchipBytesPerKI != 0 {
		t.Error("ideal design produced off-chip traffic")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	r1 := testMachine(t, cfg, "software-testing", noneDesign).Run(4000)
	r2 := testMachine(t, cfg, "software-testing", noneDesign).Run(4000)
	if r1.UIPC != r2.UIPC || r1.Instructions != r2.Instructions || r1.Cycles != r2.Cycles {
		t.Errorf("identical runs diverged: %+v vs %+v", r1, r2)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	cfg.WarmupFrac = 0.5
	m := testMachine(t, cfg, "web-search", noneDesign)
	res := m.Run(4000)
	// Measured reads must be roughly half of an unwarmed run's.
	m2 := testMachine(t, cfg, "web-search", noneDesign)
	m2.cfg.WarmupFrac = 0
	res2 := m2.Run(4000)
	if res.Design.Reads >= res2.Design.Reads {
		t.Errorf("warmup not excluded: %d >= %d", res.Design.Reads, res2.Design.Reads)
	}
}

func TestCoreClocksStayInterleaved(t *testing.T) {
	cfg := Default()
	cfg.Cores = 8
	m := testMachine(t, cfg, "tpch", noneDesign)
	m.Run(3000)
	var minC, maxC uint64 = ^uint64(0), 0
	for i := range m.cores {
		c := m.cores[i].clock
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if minC == 0 {
		t.Fatal("a core never advanced")
	}
	if float64(maxC-minC)/float64(maxC) > 0.5 {
		t.Errorf("core clocks diverged: min %d max %d", minC, maxC)
	}
}

// strideSource touches a new block on every event, 5 instructions apart,
// so every event misses both SRAM levels; write sets the store bit.
type strideSource struct {
	i     uint64
	write bool
}

func (s *strideSource) Next() trace.Event {
	s.i++
	return trace.Event{Gap: 5, Addr: mem.BlockAddr(s.i), PC: 0x400, Write: s.write}
}

// TestStoresDoNotStall: stores retire through the write buffer, so a core
// replaying only stores ends at exactly the sum of its instruction gaps,
// while the same stream replayed as loads stalls on its misses.
func TestStoresDoNotStall(t *testing.T) {
	const events = 3000
	finalClock := func(write bool) uint64 {
		s, err := dram.NewController(dram.StackedConfig())
		if err != nil {
			t.Fatal(err)
		}
		o, err := dram.NewController(dram.OffchipConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.Cores = 1
		m, err := New(cfg, []trace.Source{&strideSource{write: write}}, noneDesign(s, o), s, o)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(events)
		return m.cores[0].clock
	}
	if got, want := finalClock(true), uint64(5*events); got != want {
		t.Errorf("all-store core ended at clock %d, want the sum of its gaps %d", got, want)
	}
	if loads, stores := finalClock(false), finalClock(true); loads <= stores {
		t.Errorf("the stream as loads ended at clock %d, not later than as stores (%d)", loads, stores)
	}
}

func TestHideCyclesReduceStalls(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	slow := testMachine(t, cfg, "web-serving", noneDesign).Run(4000)
	cfg.HideCycles = 200
	fast := testMachine(t, cfg, "web-serving", noneDesign).Run(4000)
	if fast.UIPC <= slow.UIPC {
		t.Errorf("larger OoO window did not help: %v <= %v", fast.UIPC, slow.UIPC)
	}
}
