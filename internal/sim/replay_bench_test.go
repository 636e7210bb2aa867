package sim

import (
	"testing"

	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/trace"
)

// steadyUnisonMachine mirrors cmd/bench's steadyMachine: the Figure 7
// unison cell at simulation scale with nothing but the replay loop timed.
func steadyUnisonMachine(tb testing.TB, cores int) *Machine {
	tb.Helper()
	const labelCap = uint64(1 << 30)
	div := uint64(32) // AutoScaleDivisor(1<<30)
	prof := *trace.Profiles()["data-serving"]
	prof.WorkingSetBytes /= div
	sources := make([]trace.Source, cores)
	for i := range sources {
		s, err := trace.NewStream(&prof, 1, i)
		if err != nil {
			tb.Fatal(err)
		}
		sources[i] = s
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		tb.Fatal(err)
	}
	design, err := core.New(core.Config{
		CapacityBytes: labelCap / div,
		LabelBytes:    labelCap,
		PageBlocks:    15,
		Ways:          4,
	}, stacked, offchip)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Default()
	cfg.Cores = cores
	cfg.L2.SizeBytes = 128 << 10
	m, err := New(cfg, sources, design, stacked, offchip)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func BenchmarkSteadyReplay(b *testing.B) {
	m := steadyUnisonMachine(b, 16)
	m.Replay(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Replay(5_000)
	}
}
