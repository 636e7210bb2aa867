package sim

import (
	"testing"

	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/trace"
)

// plainSource hides a Stream's NextBatch, forcing the machine through the
// generic AsBatcher adapter.
type plainSource struct{ s *trace.Stream }

func (p plainSource) Next() trace.Event { return p.s.Next() }

// smallConfig is a fast machine shape for scheduler and allocation tests.
func smallConfig(cores int) Config {
	cfg := Default()
	cfg.Cores = cores
	cfg.L2.SizeBytes = 256 << 10
	return cfg
}

// TestBatchedSourcesMatchAdapter runs the same workload through native
// Batcher sources and through plain Sources behind the AsBatcher adapter:
// the per-core prefetch must be invisible, so results are identical.
func TestBatchedSourcesMatchAdapter(t *testing.T) {
	prof := trace.Profiles()["web-serving"]
	build := func(plain bool) *Machine {
		sources := make([]trace.Source, 4)
		for i := range sources {
			s, err := trace.NewStream(prof, 21, i)
			if err != nil {
				t.Fatal(err)
			}
			if plain {
				sources[i] = plainSource{s}
			} else {
				sources[i] = s
			}
		}
		st, err := dram.NewController(dram.StackedConfig())
		if err != nil {
			t.Fatal(err)
		}
		off, err := dram.NewController(dram.OffchipConfig())
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(smallConfig(4), sources, dramcache.NewNone(off), st, off)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	native := build(false).Run(30_000)
	adapted := build(true).Run(30_000)
	if native != adapted {
		t.Errorf("batched sources diverged from adapter:\nnative:  %+v\nadapter: %+v", native, adapted)
	}
}

// TestReplaySteadyStateZeroAllocs is the allocation wall of the hot path:
// once warm, replaying events allocates nothing — not in the scheduler,
// the prefetch buffers, the SRAM caches, the DRAM cache design, the
// predictors or the synthetic generator. The run advances through the
// RunTo cursor past its warmup boundary, chunk by chunk — exactly what a
// restored segment does — so the tournament rebuild at every chunk entry
// must work entirely in preallocated arrays too. testing.AllocsPerRun
// would hide rare amortized growth, so the check also repeats enough
// events to cycle every reusable buffer many times.
func TestReplaySteadyStateZeroAllocs(t *testing.T) {
	designs := map[string]func(st, off *dram.Controller) (dramcache.Design, error){
		"ideal": func(st, off *dram.Controller) (dramcache.Design, error) {
			return dramcache.NewIdeal(st), nil
		},
		"unison": func(st, off *dram.Controller) (dramcache.Design, error) {
			return core.New(core.Config{CapacityBytes: 8 << 20, PageBlocks: 15, Ways: 4}, st, off)
		},
		"alloy": func(st, off *dram.Controller) (dramcache.Design, error) {
			return dramcache.NewAlloy(8<<20, 4, st, off)
		},
		"footprint": func(st, off *dram.Controller) (dramcache.Design, error) {
			return dramcache.NewFootprint(dramcache.FCConfig{CapacityBytes: 8 << 20, Ways: 32, TagLatency: 6}, st, off)
		},
	}
	const (
		cores = 4
		warm  = 20_000 // per core: warms caches, visit buffers and predictor tables
		chunk = 5_000  // per core per timed advance
	)
	for name, build := range designs {
		t.Run(name, func(t *testing.T) {
			st, err := dram.NewController(dram.StackedConfig())
			if err != nil {
				t.Fatal(err)
			}
			off, err := dram.NewController(dram.OffchipConfig())
			if err != nil {
				t.Fatal(err)
			}
			sources := make([]trace.Source, cores)
			for i := range sources {
				s, err := trace.NewStream(trace.Profiles()["data-serving"], 5, i)
				if err != nil {
					t.Fatal(err)
				}
				sources[i] = s
			}
			design, err := build(st, off)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(smallConfig(cores), sources, design, st, off)
			if err != nil {
				t.Fatal(err)
			}
			checkSteadyAllocs(t, m, warm, chunk)
		})
	}
}

// checkSteadyAllocs runs warm events per core, crosses the measurement
// boundary, then advances the measured phase in chunk-event steps per core
// and fails if any step allocates.
func checkSteadyAllocs(t *testing.T, m *Machine, warm, chunk int) {
	t.Helper()
	const chunks = 11 // AllocsPerRun's untimed warm-up call plus 10 runs
	cores := uint64(len(m.cores))
	m.BeginPhases(warm, chunks*chunk)
	m.RunTo(m.WarmSteps()) // cross the boundary
	target := m.WarmSteps()
	if allocs := testing.AllocsPerRun(10, func() {
		target += uint64(chunk) * cores
		m.RunTo(target)
	}); allocs != 0 {
		t.Errorf("steady-state replay allocates %v times per %d-event chunk, want 0", allocs, chunk)
	}
	if target != m.TotalSteps() {
		t.Fatalf("advanced to step %d of %d: the chunks did not cover the measured phase", target, m.TotalSteps())
	}
}

// TestSegmentedReplaySteadyStateZeroAllocs extends the allocation wall to
// the chunked cursor segment workers drive: once a run is past its warmup
// boundary, advancing it RunTo-chunk by RunTo-chunk — exactly what a
// restored segment does — must allocate nothing. The tournament rebuild at
// every chunk entry works entirely in preallocated arrays.
func TestSegmentedReplaySteadyStateZeroAllocs(t *testing.T) {
	st, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	off, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]trace.Source, 4)
	for i := range sources {
		s, err := trace.NewStream(trace.Profiles()["data-serving"], 5, i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = s
	}
	design, err := core.New(core.Config{CapacityBytes: 8 << 20, PageBlocks: 15, Ways: 4}, st, off)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(smallConfig(4), sources, design, st, off)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginRun(60_000)
	m.RunTo(m.WarmSteps() + 10_000) // past the boundary, tables warm
	target := m.WarmSteps() + 10_000
	if allocs := testing.AllocsPerRun(10, func() {
		target += 5_000
		m.RunTo(target)
	}); allocs != 0 {
		t.Errorf("steady-state segmented advance allocates %v times per 5k-step chunk, want 0", allocs)
	}
}
