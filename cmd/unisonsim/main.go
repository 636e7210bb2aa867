// Command unisonsim runs one DRAM cache simulation and prints a full
// report: miss ratio and taxonomy, predictor accuracies, speedup over the
// no-DRAM-cache baseline, and DRAM activity.
//
// Usage:
//
//	unisonsim -workload web-search -design unison -size 1GB
//	unisonsim -workload tpch -design footprint -size 8GB -accesses 500000
//	unisonsim -workload web-serving -design unison -ways 1 -size 128MB
//	unisonsim -trace ws.utrace -design unison -size 1GB
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	uc "unisoncache"
	"unisoncache/internal/config"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the whole run so its defers — in particular the pprof
// stop/flush — execute on error paths too; os.Exit happens only in main.
// The return is named so the -memprofile defer can fail the process.
func realMain() (code int) {
	workload := flag.String("workload", "web-search", "one of: "+strings.Join(uc.Workloads(), ", "))
	var designs []string
	for _, d := range uc.Designs() {
		designs = append(designs, string(d))
	}
	design := flag.String("design", "unison", "one of: "+strings.Join(designs, ", "))
	size := flag.String("size", "1GB", "cache capacity (e.g. 128MB, 1GB, 8GB)")
	accesses := flag.Int("accesses", 400_000, "accesses per core (warmup included)")
	seed := flag.Uint64("seed", 1, "workload seed")
	ways := flag.Int("ways", 0, "Unison associativity override (1, 4, 32)")
	scale := flag.Int("scale", 0, "capacity scale divisor (0 = automatic)")
	tracePath := flag.String("trace", "", "replay a .utrace capture (tracegen -record); workload, seed and core count come from the file")
	noBaseline := flag.Bool("no-baseline", false, "skip the baseline run (no speedup)")
	jobs := flag.Int("jobs", 0, "concurrent simulations for the design+baseline pair (0 = one per CPU)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	capacity, err := parseSize(*size)
	if err != nil {
		return fail(err)
	}
	run := uc.Run{
		Workload:        *workload,
		Design:          uc.DesignKind(*design),
		Capacity:        capacity,
		AccessesPerCore: *accesses,
		Seed:            *seed,
		UnisonWays:      *ways,
		ScaleDivisor:    *scale,
		TracePath:       *tracePath,
	}
	if *tracePath != "" {
		// The capture header defines the stream. Flags left at their
		// defaults defer to the header; explicitly set ones pass through
		// so the library can reject a mismatched capture (-accesses may
		// replay a prefix).
		if !flagProvided("workload") {
			run.Workload = ""
		}
		if !flagProvided("seed") {
			run.Seed = 0
		}
		if !flagProvided("accesses") {
			run.AccessesPerCore = 0
		}
	}

	var res, base uc.Result
	var speedup float64
	if *noBaseline || run.Design == uc.DesignNone {
		res, err = uc.Execute(run)
	} else {
		// The design and its no-DRAM-cache baseline run concurrently
		// through the sweep engine.
		var sp []uc.SpeedupResult
		sp, err = uc.SpeedupMany(uc.Plan{Points: []uc.Run{run}, Jobs: *jobs})
		if err == nil {
			speedup, res, base = sp[0].Speedup, sp[0].Design, sp[0].Baseline
		}
	}
	if err != nil {
		return fail(err)
	}

	d := res.Design
	fmt.Printf("workload        %s\n", res.Run.Workload)
	if res.Run.TracePath != "" {
		fmt.Printf("trace           %s (replay)\n", res.Run.TracePath)
	}
	fmt.Printf("design          %s\n", d.Name)
	fmt.Printf("capacity        %s (simulated at 1/%d scale)\n", *size, res.Run.ScaleDivisor)
	fmt.Printf("accesses/core   %d (x%d cores)\n", res.Run.AccessesPerCore, res.Run.Cores)
	fmt.Println()
	fmt.Printf("UIPC            %.3f\n", res.UIPC)
	if speedup > 0 {
		fmt.Printf("speedup         %.2fx over no-DRAM-cache baseline (UIPC %.3f)\n", speedup, base.UIPC)
	}
	fmt.Printf("miss ratio      %.1f%%  (%d reads: %d trigger, %d underprediction, %d singleton-bypassed)\n",
		d.MissRatioPct(), d.Reads, d.TriggerMisses, d.UnderpredMisses, d.SingletonSkips)
	fmt.Printf("mean read lat   %.0f cycles below the L2\n", res.AvgDRAMReadLatency)
	fmt.Println()
	if d.FP != nil {
		fmt.Printf("footprint pred  %.1f%% accuracy, %.1f%% overfetch\n", d.FP.Percent(), d.FO.Percent())
	}
	if d.WP != nil {
		fmt.Printf("way predictor   %.1f%% accuracy\n", d.WP.Percent())
	}
	if d.MP != nil {
		fmt.Printf("miss predictor  %.1f%% accuracy, %.1f%% overfetch\n", d.MP.Percent(), d.MPOverfetchPct)
	}
	fmt.Println()
	fmt.Printf("off-chip        %.1f B/kilo-instruction (%d MB read, %d MB written)\n",
		res.OffchipBytesPerKI, d.OffchipReadBytes>>20, d.OffchipWriteBytes>>20)
	fmt.Printf("off-chip DRAM   %.0f%% row-buffer hits, %d activations\n",
		100*res.Offchip.RowHitRate(), res.Offchip.Activations)
	fmt.Printf("stacked DRAM    %.0f%% row-buffer hits, %d activations\n",
		100*res.Stacked.RowHitRate(), res.Stacked.Activations)
	fmt.Printf("L1 hit rate     %.1f%%   L2 hit rate %.1f%%\n", 100*res.L1HitRate, 100*res.L2.HitRatio())
	return 0
}

// fail reports err and returns the process exit code; callers return it so
// deferred cleanups (profile flushes) still run before main exits.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "unisonsim:", err)
	return 1
}

// flagProvided reports whether the named flag was set on the command line.
func flagProvided(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

// parseSize understands "128MB", "1GB", "8g", "64m", plain bytes.
func parseSize(s string) (uint64, error) { return config.ParseSize(s) }
