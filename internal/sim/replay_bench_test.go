package sim

import (
	"bytes"
	"testing"
	"time"

	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/stats"
	"unisoncache/internal/telemetry"
	"unisoncache/internal/trace"
)

// steadyUnisonMachine wires the Figure 7 unison cell at simulation scale
// (data-serving, 1 GB labelled capacity, the facade's automatic scale
// divisor) with nothing but the replay loop timed. WarmupFrac is 0, so a
// run's measurement phase — and any recording — starts at step 0.
func steadyUnisonMachine(tb testing.TB, cores int) *Machine {
	return steadyUnisonCell(tb, steadyStreams(tb, cores))
}

// steadyStreams returns the steady cell's live event streams: data-serving
// at seed 1, its working set divided by the cell's scale divisor.
func steadyStreams(tb testing.TB, cores int) []trace.Source {
	tb.Helper()
	prof := *trace.Profiles()["data-serving"]
	prof.WorkingSetBytes /= steadyDivisor
	sources := make([]trace.Source, cores)
	for i := range sources {
		s, err := trace.NewStream(&prof, 1, i)
		if err != nil {
			tb.Fatal(err)
		}
		sources[i] = s
	}
	return sources
}

// steadyDivisor is AutoScaleDivisor(1 GB), the steady cell's scale.
const steadyDivisor = 32

// steadyUnisonCell builds the steady cell's machine over sources.
func steadyUnisonCell(tb testing.TB, sources []trace.Source) *Machine {
	tb.Helper()
	const labelCap = uint64(1 << 30)
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		tb.Fatal(err)
	}
	design, err := core.New(core.Config{
		CapacityBytes: labelCap / steadyDivisor,
		LabelBytes:    labelCap,
		PageBlocks:    15,
		Ways:          4,
	}, stacked, offchip)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(steadyConfig(len(sources)), sources, design, stacked, offchip)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// steadyConfig is the steady cell's CMP: Table III at the cell's scale,
// with no warmup.
func steadyConfig(cores int) Config {
	cfg := Default()
	cfg.Cores = cores
	cfg.WarmupFrac = 0
	cfg.L2.SizeBytes = 128 << 10
	return cfg
}

// BenchmarkSteadyReplay times the steady cell's replay loop on live
// streams, every core simulating its L1 and folding its hits: the loop
// every live Execute runs. It reports ns/event over the timed chunks.
func BenchmarkSteadyReplay(b *testing.B) {
	const cores, prewarm, batch = 16, 20_000, 5_000
	m := steadyUnisonMachine(b, cores)
	m.BeginRun(prewarm + b.N*batch)
	target := uint64(prewarm * cores)
	m.RunTo(target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target += batch * cores
		m.RunTo(target)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*cores), "ns/event")
}

// outcomeCapture is BenchmarkOutcomeReplay's capture and its L1 outcome
// streams, built on the benchmark's first call and shared by the rest.
var outcomeCapture struct {
	c *trace.Capture
	o *L1Outcomes
}

// BenchmarkOutcomeReplay is BenchmarkSteadyReplay's cell replayed from a
// capture of the same streams, taking its L1 outcomes from the capture's
// streams: the loop every Execute of a recorded capture runs, L1 hits
// folded out of the schedule. It reports ns/event over the timed chunks.
// The capture holds 40 chunks past the prewarm; a fresh machine replaces
// an exhausted one off the clock, so memory stays fixed however large b.N
// grows.
func BenchmarkOutcomeReplay(b *testing.B) {
	const cores, prewarm, batch, chunks = 16, 20_000, 5_000, 40
	const events = prewarm + chunks*batch
	if outcomeCapture.c == nil {
		var buf bytes.Buffer
		h := trace.FileHeader{Profile: "data-serving", Seed: 1, ScaleDivisor: steadyDivisor, Cores: cores, EventsPerCore: events}
		if err := trace.WriteTrace(&buf, h, steadyStreams(b, cores)); err != nil {
			b.Fatal(err)
		}
		ob, err := NewL1OutcomeBuilder(steadyConfig(cores).L1)
		if err != nil {
			b.Fatal(err)
		}
		c, err := trace.ReadCapture(&buf, ob)
		if err != nil {
			b.Fatal(err)
		}
		outcomeCapture.c, outcomeCapture.o = c, ob.Outcomes()
	}
	var m *Machine
	var target uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunks == 0 {
			b.StopTimer()
			var sources []trace.Source
			for _, rs := range outcomeCapture.c.Sources() {
				sources = append(sources, rs)
			}
			m = steadyUnisonCell(b, sources)
			if err := m.UseL1Outcomes(outcomeCapture.o, events); err != nil {
				b.Fatal(err)
			}
			m.BeginRun(events)
			target = prewarm * cores
			m.RunTo(target)
			b.StartTimer()
		}
		target += batch * cores
		m.RunTo(target)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*cores), "ns/event")
}

// BenchmarkReplayTelemetry is the telemetry-overhead guard: the steady
// cell replayed plain and again with epoch telemetry armed (every 10k
// retired events per core), reported as telemetry_vs_steady — the armed
// loop's throughput over the plain one's. It fails below 0.95.
//
// A few-percent ratio is below what single timed passes resolve on a
// shared host, so the two loops run in short alternating rounds. Each
// round's quotient cancels the host drift both sides share, and the median
// over rounds discards the asymmetric spikes. The machines also advance in
// lockstep — the same prewarm and the same events per round — because
// per-event cost drifts with trace phase, and telemetry must be the only
// difference between the two sides of a pair.
func BenchmarkReplayTelemetry(b *testing.B) {
	const (
		cores       = 16
		batch       = 5_000 // events per core per op
		prewarm     = 20_000
		warmOps     = 4
		rounds      = 120
		opsPerRound = 2
		runAccesses = 40_000_000 // never reached: every op replays exactly batch events per core
		minRatio    = 0.95
		epochEvents = 10_000
	)
	// Both sides drive the same cursor; only the armed one records.
	var machines [2]*Machine
	var targets [2]uint64
	var ops [2]func()
	for k := range machines {
		m := steadyUnisonMachine(b, cores)
		if k == 1 {
			m.Observe(telemetry.Spec{EpochEvents: epochEvents}.Bounds, nil)
		}
		m.BeginRun(runAccesses)
		targets[k] = uint64(prewarm) * cores
		m.RunTo(targets[k])
		machines[k] = m
		ops[k] = func() {
			targets[k] += batch * cores
			m.RunTo(targets[k])
		}
	}
	for _, op := range ops {
		for n := 0; n < warmOps; n++ {
			op()
		}
	}

	ratios := make([]float64, 0, rounds*b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			var ns [2]time.Duration
			for k, op := range ops {
				start := time.Now()
				for n := 0; n < opsPerRound; n++ {
					op()
				}
				ns[k] = time.Since(start)
			}
			ratios = append(ratios, float64(ns[0])/float64(ns[1]))
		}
	}
	b.StopTimer()
	if targets[1] >= machines[1].TotalSteps() {
		b.Fatalf("machines exhausted their run budget (%d steps): the last rounds replayed nothing", targets[1])
	}
	ratio := stats.Median(ratios)
	b.ReportMetric(ratio, "telemetry_vs_steady")
	if ratio < minRatio {
		b.Fatalf("telemetry-armed replay ran at %.3fx the steady cell (floor %.2fx): epoch recording is no longer near-free", ratio, minRatio)
	}
}
