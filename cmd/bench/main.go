// Command bench runs the repository's end-to-end performance benchmarks
// and records the numbers in a JSON trajectory file (BENCH_core.json at the
// repo root), so every PR measures itself against the ones before it.
//
// Three kinds of benchmarks run:
//
//   - Fig7Performance/<design>: one complete Figure 7 simulation per
//     iteration (the same cell bench_test.go measures), reporting ns/op,
//     allocs/op, simulated events per second and the headline metrics
//     (speedup over the no-cache baseline, UIPC).
//   - ServeCachedRun: one POST /v1/runs round trip against an in-process
//     simulation daemon, answered from the content-addressed result
//     cache — the service-overhead / repeat-traffic-throughput datapoint.
//   - SteadyReplay/unison: the measured-interval hot loop in isolation — a
//     prewarmed machine replaying events with no setup in the timed
//     region. Its allocs/op is the zero-allocation contract: the run
//     fails (exit 1) if it exceeds -max-steady-allocs, which defaults
//     to 0.
//   - ReplayTelemetry/unison: the same hot loop with epoch-sliced
//     telemetry armed (the Run/BeginRun cursor, since Replay never
//     records). telemetry_vs_steady is the back-to-back throughput
//     ratio; the run fails (exit 1) if recording costs more than
//     -max-telemetry-overhead of the steady cell's events/s.
//
// Usage:
//
//	go run ./cmd/bench                      # full run, appends to BENCH_core.json
//	go run ./cmd/bench -quick               # CI-sized run (~seconds)
//	go run ./cmd/bench -label my-change     # tag the record
//	go run ./cmd/bench -out /tmp/b.json     # write elsewhere
//
// Records append: the committed file keeps one record per milestone, so
// the improvement (or regression) of each change stays visible. Compare
// the newest record's ns_per_op against any older one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/serve"
	"unisoncache/internal/sim"
	"unisoncache/internal/telemetry"
	"unisoncache/internal/trace"
)

// Measurement is one benchmark's recorded numbers.
type Measurement struct {
	NsPerOp      float64            `json:"ns_per_op"`
	AllocsPerOp  int64              `json:"allocs_per_op"`
	BytesPerOp   int64              `json:"bytes_per_op"`
	EventsPerSec float64            `json:"events_per_sec,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// Record is one bench invocation: a labeled set of measurements. The
// host-parallelism fields qualify every number in the record: ns_per_op on
// a one-CPU container and on a 32-way box are different experiments.
type Record struct {
	Label          string                 `json:"label"`
	GoVersion      string                 `json:"go_version"`
	Gomaxprocs     int                    `json:"gomaxprocs"`
	CoresAvailable int                    `json:"cores_available"`
	Quick          bool                   `json:"quick,omitempty"`
	Benchmarks     map[string]Measurement `json:"benchmarks"`
}

// File is the BENCH_core.json layout.
type File struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "trajectory file to append to")
	label := flag.String("label", "HEAD", "label for this record")
	quick := flag.Bool("quick", false, "CI-sized run: shorter traces, one pass")
	maxSteadyAllocs := flag.Int64("max-steady-allocs", 0, "fail if SteadyReplay allocs/op exceed this (negative disables)")
	maxTeleOverhead := flag.Float64("max-telemetry-overhead", 0.02, "fail if ReplayTelemetry events/s fall more than this fraction below SteadyReplay's (negative disables)")
	flag.Parse()

	accesses := 60_000
	if *quick {
		accesses = 20_000
	}

	rec := Record{
		Label:          *label,
		GoVersion:      runtime.Version(),
		Gomaxprocs:     runtime.GOMAXPROCS(0),
		CoresAvailable: runtime.NumCPU(),
		Quick:          *quick,
		Benchmarks:     map[string]Measurement{},
	}

	// The two steady cells: the prewarmed hot loop alone. One op = batch
	// events on every core; setup happens before the timer starts. The
	// steady cells run first, ahead of the minutes-long Fig7 cells, so the
	// hot-loop numbers come from a freshly started, minimally perturbed
	// process.
	//
	// The telemetry guard polices a few-percent ratio, which single 1-second
	// samples cannot resolve on a shared host — run-to-run swings of ±15%
	// are routine on a noisy-neighbor container. So the cells are measured
	// as many short timing samples taken round-robin across the two
	// loops. The headline ns/op is each loop's minimum sample (the
	// quiet-host cost — every sample a neighbor or GC perturbed is
	// discarded). The guarded ratio is estimated directly from paired
	// samples: each round's loops run ~10ms apart, so slow host drift
	// hits both sides of a pair equally and cancels in the quotient; the
	// median over all rounds then shrugs off the asymmetric spikes. The
	// minimum-of-mins quotient cannot do this — its two minima come from
	// different rounds, so ±3% estimator noise lands straight in a 2%
	// guard band.
	//
	// The two machines also advance in lockstep: identical prewarm and
	// identical op counts at every stage, never an adaptive benchmark
	// loop. Per-event cost varies with trace phase (miss rates drift as
	// the stream moves through its working set), so two machines at
	// different stream positions measure different workloads — lockstep
	// keeps every sampled pair on the same trace segment, leaving
	// telemetry as the only difference between cells.
	const steadyBatch = 5_000
	steadyCores := 16

	m := steadyMachine(steadyCores, 2.0/3.0)
	m.Replay(20_000)

	// ReplayTelemetry: the same hot loop with telemetry recording every
	// 10k retired events per core. Replay() never arms telemetry, so this
	// cell drives the same loop through the BeginRun/RunTo cursor with
	// WarmupFrac 0 (measurement — and therefore recording — from step 0).
	// The run is sized so the timed region never reaches TotalSteps: every
	// timed op advances exactly steadyBatch events per core, the same work
	// as the steady cell.
	const teleRunAccesses = 40_000_000
	mt := steadyMachine(steadyCores, 0)
	mt.SetTelemetry(telemetry.Spec{EpochEvents: 10_000}, nil)
	mt.BeginRun(teleRunAccesses)
	teleTarget := uint64(20_000) * uint64(steadyCores)
	mt.RunTo(teleTarget)

	steadyOps := []func(){
		func() { m.Replay(steadyBatch) },
		func() {
			teleTarget += uint64(steadyBatch) * uint64(steadyCores)
			mt.RunTo(teleTarget)
		},
	}
	// Allocation accounting over a fixed op count (the loops are
	// deterministic, so a handful of ops suffices); doubles as the final
	// warmup stage, and every cell advances the same number of events.
	const allocOps = 4
	allocs := make([]int64, len(steadyOps))
	bytes := make([]int64, len(steadyOps))
	for i, op := range steadyOps {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for n := 0; n < allocOps; n++ {
			op()
		}
		runtime.ReadMemStats(&after)
		allocs[i] = int64(after.Mallocs-before.Mallocs) / allocOps
		bytes[i] = int64(after.TotalAlloc-before.TotalAlloc) / allocOps
	}
	const robustRounds, robustOps = 120, 2
	minNs := make([]float64, len(steadyOps))
	rounds := make([][]float64, len(steadyOps))
	for i := range rounds {
		rounds[i] = make([]float64, robustRounds)
	}
	for round := 0; round < robustRounds; round++ {
		for i, op := range steadyOps {
			start := time.Now()
			for n := 0; n < robustOps; n++ {
				op()
			}
			ns := float64(time.Since(start).Nanoseconds()) / robustOps
			rounds[i][round] = ns
			if round == 0 || ns < minNs[i] {
				minNs[i] = ns
			}
		}
	}
	steadyNs, teleNs := minNs[0], minNs[1]
	teleVsSteady := medianRatio(rounds[0], rounds[1])
	if teleTarget >= mt.TotalSteps() {
		fatal(fmt.Errorf("telemetry cell exhausted its run budget (%d steps): numbers are clamped junk", teleTarget))
	}

	steady := Measurement{
		NsPerOp:      steadyNs,
		AllocsPerOp:  allocs[0],
		BytesPerOp:   bytes[0],
		EventsPerSec: float64(steadyBatch*steadyCores) / steadyNs * 1e9,
	}
	rec.Benchmarks["SteadyReplay/unison"] = steady
	fmt.Printf("%-28s %12.0f ns/op  %8.2fM events/s  %4d allocs/op\n",
		"SteadyReplay/unison", steady.NsPerOp, steady.EventsPerSec/1e6, steady.AllocsPerOp)

	// telemetry_vs_steady is the whole cost of epoch slicing on the hot
	// path: the paired-median throughput ratio over SteadyReplay, so the
	// comparison survives both day-to-day machine drift and within-run
	// host noise.
	tele := Measurement{
		NsPerOp:      teleNs,
		AllocsPerOp:  allocs[1],
		BytesPerOp:   bytes[1],
		EventsPerSec: float64(steadyBatch*steadyCores) / teleNs * 1e9,
		Metrics: map[string]float64{
			"telemetry_vs_steady": teleVsSteady,
		},
	}
	rec.Benchmarks["ReplayTelemetry/unison"] = tele
	fmt.Printf("%-28s %12.0f ns/op  %8.2fM events/s  %4d allocs/op  %.3fx vs steady cell\n",
		"ReplayTelemetry/unison", tele.NsPerOp, tele.EventsPerSec/1e6, tele.AllocsPerOp,
		teleVsSteady)

	// Fig7Performance: speedup per design over the shared no-cache
	// baseline, exactly the bench_test.go cell.
	base, err := uc.Execute(uc.Run{Workload: "data-serving", Design: uc.DesignNone,
		Capacity: 1 << 30, AccessesPerCore: accesses})
	if err != nil {
		fatal(err)
	}
	for _, d := range []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignIdeal} {
		name := "Fig7Performance/" + string(d)
		var res uc.Result
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = uc.Execute(uc.Run{Workload: "data-serving", Design: d,
					Capacity: 1 << 30, AccessesPerCore: accesses})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		events := float64(res.Run.AccessesPerCore) * float64(res.Run.Cores)
		rec.Benchmarks[name] = Measurement{
			NsPerOp:      float64(br.NsPerOp()),
			AllocsPerOp:  br.AllocsPerOp(),
			BytesPerOp:   br.AllocedBytesPerOp(),
			EventsPerSec: events / float64(br.NsPerOp()) * 1e9,
			Metrics: map[string]float64{
				"speedup": res.UIPC / base.UIPC,
				"uipc":    res.UIPC,
			},
		}
		fmt.Printf("%-28s %12.0f ns/op  %8.2fM events/s  %4d allocs/op  speedup %.3f\n",
			name, float64(br.NsPerOp()), events/float64(br.NsPerOp())*1e3, br.AllocsPerOp(), res.UIPC/base.UIPC)
	}

	// Fig7Sampled: the same unison cell under SMARTS-style sampled
	// simulation. Wall-clock parity with Fig7Performance/unison is the
	// expectation — this engine's functional phases run the full timing
	// model, so sampling buys error bars and detailed-event reduction,
	// not raw speed (DESIGN.md §9) — and the datapoint pins both the
	// bookkeeping overhead (ns_per_op vs the full cell) and the sampling
	// payoff (detailed_reduction, rel_ci).
	{
		sampledRun := uc.Run{Workload: "data-serving", Design: uc.DesignUnison,
			Capacity: 1 << 30, AccessesPerCore: accesses,
			Sampling: uc.SampleSpec{IntervalEvents: 500, GapEvents: 1500, MinIntervals: 4}}
		var res uc.Result
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = uc.Execute(sampledRun)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		ci := res.CI
		events := float64(ci.SimulatedEvents)
		rec.Benchmarks["Fig7Sampled/unison"] = Measurement{
			NsPerOp:      float64(br.NsPerOp()),
			AllocsPerOp:  br.AllocsPerOp(),
			BytesPerOp:   br.AllocedBytesPerOp(),
			EventsPerSec: events / float64(br.NsPerOp()) * 1e9,
			Metrics: map[string]float64{
				"speedup":            res.UIPC / base.UIPC,
				"uipc":               res.UIPC,
				"rel_ci":             ci.RelHalfWidth(),
				"windows":            float64(ci.Intervals()),
				"detailed_reduction": float64(ci.FullRunEvents) / float64(ci.DetailedEvents),
			},
		}
		fmt.Printf("%-28s %12.0f ns/op  %8.2fM events/s  %4d allocs/op  %.1fx fewer detailed, ±%.1f%% CI\n",
			"Fig7Sampled/unison", float64(br.NsPerOp()), events/float64(br.NsPerOp())*1e3, br.AllocsPerOp(),
			float64(ci.FullRunEvents)/float64(ci.DetailedEvents), 100*ci.RelHalfWidth())
	}

	// ReplaySegmented: the same unison cell executed time-parallel
	// (Run.Segments = 4). One untimed Execute populates the boundary
	// snapshots (the serial-with-save pass), so every timed iteration takes
	// the concurrent path: four workers replay their quarter of the run
	// from restored checkpoints and the fix-up cascade stitches them
	// together. Results are bit-identical to the serial cell; the win is
	// wall-clock, which scales with available cores — on a single-CPU host
	// the workers serialize and the datapoint degrades to roughly the
	// serial cell plus snapshot codec overhead.
	{
		segRun := uc.Run{Workload: "data-serving", Design: uc.DesignUnison,
			Capacity: 1 << 30, AccessesPerCore: accesses, Segments: 4}
		warm, err := uc.Execute(segRun)
		if err != nil {
			fatal(err)
		}
		var res uc.Result
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = uc.Execute(segRun)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if res.UIPC != warm.UIPC || res.Instructions != warm.Instructions {
			fatal(fmt.Errorf("segmented replay diverged across iterations: UIPC %v vs %v", res.UIPC, warm.UIPC))
		}
		events := float64(res.Run.AccessesPerCore) * float64(res.Run.Cores)
		serial := rec.Benchmarks["Fig7Performance/"+string(uc.DesignUnison)]
		rec.Benchmarks["ReplaySegmented/unison"] = Measurement{
			NsPerOp:      float64(br.NsPerOp()),
			AllocsPerOp:  br.AllocsPerOp(),
			BytesPerOp:   br.AllocedBytesPerOp(),
			EventsPerSec: events / float64(br.NsPerOp()) * 1e9,
			Metrics: map[string]float64{
				"segments":          float64(segRun.Segments),
				"cores_available":   float64(runtime.NumCPU()),
				"speedup":           res.UIPC / base.UIPC,
				"speedup_vs_serial": serial.NsPerOp / float64(br.NsPerOp()),
			},
		}
		fmt.Printf("%-28s %12.0f ns/op  %8.2fM events/s  %4d allocs/op  %.2fx vs serial cell (%d cpu)\n",
			"ReplaySegmented/unison", float64(br.NsPerOp()), events/float64(br.NsPerOp())*1e3, br.AllocsPerOp(),
			serial.NsPerOp/float64(br.NsPerOp()), runtime.NumCPU())
	}

	// ServeCachedRun: the simulation service's repeat-traffic hot path —
	// one POST /v1/runs round trip against a local daemon answered
	// synchronously from the content-addressed result cache (decode,
	// canonical RunKey hash, LRU lookup, response marshal; zero
	// simulation in the timed loop). ns/op is the per-request service
	// overhead and req_per_sec the cached-throughput ceiling.
	{
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		cl := client.New(ts.URL)
		ctx := context.Background()
		cachedRun := uc.Run{Workload: "data-serving", Design: uc.DesignUnison,
			Capacity: 1 << 30, AccessesPerCore: accesses}
		if _, err := cl.Execute(ctx, cachedRun); err != nil {
			fatal(err)
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j, err := cl.SubmitRun(ctx, cachedRun)
				if err != nil {
					b.Fatal(err)
				}
				if !j.Terminal() || j.Result == nil {
					b.Fatal("cached submission was not served synchronously")
				}
			}
		})
		hits, err := cl.Metrics(ctx)
		if err != nil {
			fatal(err)
		}
		rec.Benchmarks["ServeCachedRun"] = Measurement{
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Metrics: map[string]float64{
				"req_per_sec": 1e9 / float64(br.NsPerOp()),
				"cache_hits":  hits["unisonserved_cache_hits_total"],
			},
		}
		ts.Close()
		if err := srv.Drain(ctx); err != nil {
			fatal(err)
		}
		fmt.Printf("%-28s %12.0f ns/op  %8.0f req/s     %4d allocs/op\n",
			"ServeCachedRun", float64(br.NsPerOp()), 1e9/float64(br.NsPerOp()), br.AllocsPerOp())
	}

	// ClusterCachedRun: the same repeat-traffic datapoint through a
	// 3-member consistent-hash cluster — client-side RunKey hashing and
	// ring routing, then one POST answered synchronously from the owning
	// daemon's cache. The delta over ServeCachedRun is the whole cost of
	// clustering on the cached hot path.
	{
		const members = 3
		ctx := context.Background()
		handlers := make([]*atomic.Value, members)
		tss := make([]*httptest.Server, members)
		urls := make([]string, members)
		for i := range tss {
			h := &atomic.Value{}
			handlers[i] = h
			tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hh, _ := h.Load().(http.Handler); hh != nil {
					hh.ServeHTTP(w, r)
					return
				}
				http.Error(w, "starting", http.StatusServiceUnavailable)
			}))
			urls[i] = tss[i].URL
		}
		servers := make([]*serve.Server, members)
		for i := range servers {
			servers[i] = serve.New(serve.Config{Self: urls[i], Peers: urls})
			handlers[i].Store(servers[i].Handler())
		}
		cl, err := client.NewCluster(urls)
		if err != nil {
			fatal(err)
		}
		cachedRun := uc.Run{Workload: "data-serving", Design: uc.DesignUnison,
			Capacity: 1 << 30, AccessesPerCore: accesses}
		if _, err := cl.Execute(ctx, cachedRun); err != nil {
			fatal(err)
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cl.Execute(ctx, cachedRun)
				if err != nil {
					b.Fatal(err)
				}
				if res.UIPC <= 0 {
					b.Fatal("cluster hit returned junk")
				}
			}
		})
		var hits float64
		for _, u := range urls {
			m, err := cl.Node(u).Metrics(ctx)
			if err != nil {
				fatal(err)
			}
			hits += m["unisonserved_cache_hits_total"]
		}
		rec.Benchmarks["ClusterCachedRun"] = Measurement{
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Metrics: map[string]float64{
				"req_per_sec": 1e9 / float64(br.NsPerOp()),
				"cache_hits":  hits,
				"members":     members,
			},
		}
		for i := range servers {
			tss[i].Close()
			if err := servers[i].Drain(ctx); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("%-28s %12.0f ns/op  %8.0f req/s     %4d allocs/op\n",
			"ClusterCachedRun", float64(br.NsPerOp()), 1e9/float64(br.NsPerOp()), br.AllocsPerOp())
	}

	if err := appendRecord(*out, rec); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %q in %s\n", *label, *out)

	if *maxSteadyAllocs >= 0 && steady.AllocsPerOp > *maxSteadyAllocs {
		fmt.Fprintf(os.Stderr, "bench: steady-state replay allocates %d times per op (max %d): the zero-allocation hot-path contract regressed\n",
			steady.AllocsPerOp, *maxSteadyAllocs)
		os.Exit(1)
	}
	if *maxTeleOverhead >= 0 && teleVsSteady < 1-*maxTeleOverhead {
		fmt.Fprintf(os.Stderr, "bench: telemetry replay ran at %.3fx the steady cell (floor %.3fx): epoch recording is no longer near-free\n",
			teleVsSteady, 1-*maxTeleOverhead)
		os.Exit(1)
	}
}

// medianRatio estimates how fast loop b runs relative to loop a (>1 means
// b is faster) from paired per-round samples: each round's quotient
// cancels the host drift common to both sides, and the median over rounds
// discards the asymmetric spikes.
func medianRatio(a, b []float64) float64 {
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = a[i] / b[i]
	}
	sort.Float64s(ratios)
	n := len(ratios)
	if n%2 == 1 {
		return ratios[n/2]
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2
}

// steadyMachine wires the Figure 7 unison cell at simulation scale, the
// way the facade does, but exposed as a raw machine so the timed region is
// nothing but the replay loop. warmupFrac only matters to cells that drive
// the BeginRun/RunTo cursor (Replay ignores the run bookkeeping entirely).
func steadyMachine(cores int, warmupFrac float64) *sim.Machine {
	const labelCap = uint64(1 << 30)
	div := uint64(uc.AutoScaleDivisor(labelCap))
	prof := *trace.Profiles()["data-serving"]
	prof.WorkingSetBytes /= div
	sources := make([]trace.Source, cores)
	for i := range sources {
		s, err := trace.NewStream(&prof, 1, i)
		if err != nil {
			fatal(err)
		}
		sources[i] = s
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		fatal(err)
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		fatal(err)
	}
	design, err := core.New(core.Config{
		CapacityBytes: labelCap / div,
		LabelBytes:    labelCap,
		PageBlocks:    15,
		Ways:          4,
	}, stacked, offchip)
	if err != nil {
		fatal(err)
	}
	cfg := sim.Default()
	cfg.Cores = cores
	cfg.WarmupFrac = warmupFrac
	cfg.L2.SizeBytes = 128 << 10
	m, err := sim.New(cfg, sources, design, stacked, offchip)
	if err != nil {
		fatal(err)
	}
	return m
}

// appendRecord loads the trajectory file (if any), appends rec and writes
// it back.
func appendRecord(path string, rec Record) error {
	f := File{Schema: 1}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Schema = 1
	f.Records = append(f.Records, rec)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
