// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables I, II, IV, V and Figures 5–8), plus the ablations
// DESIGN.md calls out. Results are printed as aligned text tables and also
// written as CSV under -out.
//
// Usage:
//
//	experiments -list                  # print the experiment index
//	experiments -exp fig6              # one experiment, full length
//	experiments -exp all -quick        # everything, shortened runs
//	experiments -exp table5 -workloads web-search,tpch
//	experiments -exp fig7 -quick -telemetry    # + fig7_epochs.csv timeline
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/config"
	"unisoncache/internal/obs"
	"unisoncache/internal/stats"
)

type options struct {
	accesses  int
	seed      uint64
	workloads []string
	outDir    string
	jobs      int
	// segments, when >= 2, runs every plain simulation point time-parallel
	// (Run.Segments); telemetry points ignore it. Results — and therefore
	// every CSV — are byte-identical to serial execution; only wall-clock
	// changes.
	segments int
	// telemetry, when enabled, records epoch-sliced counter timelines on
	// the speedup figures' design points and writes them as companion
	// per-epoch CSVs (fig7_epochs.csv, fig8_epochs.csv). The figure CSVs
	// themselves stay byte-identical — recording never perturbs a replay.
	// Telemetry points replay serially whatever -segments says.
	telemetry uc.TelemetrySpec
	// srv, when non-nil, routes every simulation through the unisonserved
	// service (-server, one or more comma-separated daemon URLs) instead
	// of executing in-process. The service's determinism contract keeps
	// all CSVs byte-identical to the local path — including through a
	// multi-daemon cluster — and repeat invocations hit the daemons'
	// result caches and stores.
	srv *client.Cluster
}

// newService builds the -server client over the comma-separated daemon
// URLs. One address makes a one-member Cluster, which sends every call to
// that daemon. Retries are surfaced on stderr through the client's
// structured logger — a long figure run that silently stalls on a
// flapping daemon is much worse than a few warning lines.
func newService(servers string) (*client.Cluster, error) {
	cl, err := client.NewCluster(strings.Split(servers, ","))
	if err != nil {
		return nil, err
	}
	retryLog, _ := obs.NewLogger(os.Stderr, obs.LogText, slog.LevelWarn)
	for _, n := range cl.Nodes() {
		cl.Node(n).Logger = retryLog
	}
	return cl, nil
}

// executeMany runs an ExecuteMany plan locally or through -server.
func (o options) executeMany(points []uc.Run) ([]uc.Result, error) {
	if o.srv != nil {
		return o.srv.ExecuteMany(context.Background(), points)
	}
	return uc.ExecuteMany(o.plan(points))
}

// speedupMany runs a SpeedupMany plan locally or through -server.
func (o options) speedupMany(points []uc.Run) ([]uc.SpeedupResult, error) {
	if o.srv != nil {
		return o.srv.SpeedupMany(context.Background(), points)
	}
	return uc.SpeedupMany(o.plan(points))
}

// plan wraps a point list with the sweep engine's execution policy: the
// -jobs worker count and a live progress ticker on stderr.
func (o options) plan(points []uc.Run) uc.Plan {
	return uc.Plan{Points: points, Jobs: o.jobs, Progress: os.Stderr}
}

// run fills the shared fields every experiment point carries.
func (o options) run(workload string, design uc.DesignKind, capacity uint64) uc.Run {
	return uc.Run{Workload: workload, Design: design, Capacity: capacity,
		AccessesPerCore: o.accesses, Seed: o.seed, Segments: o.segments}
}

// experiments is the index: every runnable experiment, its paper mapping,
// and its runner, in canonical order.
var experiments = []struct {
	name  string
	paper string
	fn    func(options) error
}{
	{"table1", "Table I — qualitative comparison of AC / FC / UC (static)", table1},
	{"table2", "Table II — key characteristics, computed from the implemented geometries", table2},
	{"table4", "Table IV — Footprint Cache tag-array scaling", table4},
	{"table5", "Table V — predictor accuracies (MP / FP / WP)", table5},
	{"fig5", "Figure 5 — Unison miss ratio vs associativity (1/4/32 ways)", fig5},
	{"fig6", "Figure 6 — miss ratio: Alloy vs Footprint vs Unison", fig6},
	{"fig7", "Figure 7 — CloudSuite speedup over no-DRAM-cache baseline", fig7},
	{"fig8", "Figure 8 — TPC-H speedup, 1-8 GB caches", fig8},
	{"ablation-way", "§V-B — way prediction vs fetch-all and serialized tag-data", ablationWay},
	{"ablation-singleton", "§III-A.4 — singleton bypass ablation", ablationSingleton},
	{"energy", "§V-D — off-chip activations and dynamic DRAM energy per KI", energy},
	{"priorart", "§II-A — Loh-Hill vs Alloy vs Unison lineage", priorArt},
	{"conflict", "§III-A.5 — analytical page-vs-block conflict model", conflictModel},
}

// printIndex writes the experiment index (names + paper mapping).
func printIndex(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-20s %s\n", e.name, e.paper)
	}
	fmt.Fprintf(w, "  %-20s run every experiment above, in order\n", "all")
}

func main() {
	exp := flag.String("exp", "all", "experiment name (see -list), or all")
	list := flag.Bool("list", false, "print the experiment index (names + paper mapping) and exit")
	quick := flag.Bool("quick", false, "shortened runs (~5x faster, noisier)")
	accesses := flag.Int("accesses", 0, "accesses per core (0 = default)")
	seed := flag.Uint64("seed", 1, "workload seed")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload filter")
	out := flag.String("out", "results", "CSV output directory")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = one per CPU)")
	segments := flag.Int("segments", 0, "time-parallel segments per simulation (0/1 = serial; results are byte-identical either way; telemetry points run serially)")
	telemetryFlag := flag.Bool("telemetry", false, "record epoch-sliced counter timelines on the speedup figures and write per-epoch CSVs (fig7_epochs.csv, fig8_epochs.csv); figure CSVs stay byte-identical; telemetry points run serially whatever -segments")
	epochEvents := flag.Int("epoch-events", 0, "telemetry epoch length in retired events per core (0 = default; implies -telemetry)")
	server := flag.String("server", "", "unisonserved base URL(s), comma-separated for a cluster (e.g. http://127.0.0.1:8080,http://127.0.0.1:8081); route all simulations through the service")
	flag.Parse()

	if *list {
		printIndex(os.Stdout)
		return
	}

	opt := options{accesses: *accesses, seed: *seed, outDir: *out, jobs: *jobs, segments: *segments}
	if *server != "" {
		srv, err := newService(*server)
		if err != nil {
			fatal(err)
		}
		if _, err := srv.Health(context.Background()); err != nil {
			fatal(fmt.Errorf("cannot reach -server %s: %w", *server, err))
		}
		opt.srv = srv
	}
	if *telemetryFlag || *epochEvents != 0 {
		opt.telemetry = uc.DefaultTelemetrySpec()
		if *epochEvents != 0 {
			opt.telemetry.EpochEvents = *epochEvents
		}
	}
	if opt.accesses == 0 {
		opt.accesses = 400_000
		if *quick {
			opt.accesses = 80_000
		}
	}
	if *workloadsFlag != "" {
		opt.workloads = strings.Split(*workloadsFlag, ",")
		// Fail fast, before any simulation runs: the registry knows every
		// valid name (built-in or registered).
		known := map[string]bool{}
		for _, w := range uc.Workloads() {
			known[w] = true
		}
		for _, w := range opt.workloads {
			if !known[w] {
				fatal(fmt.Errorf("unknown workload %q (have %v)", w, uc.Workloads()))
			}
		}
	} else {
		opt.workloads = uc.Workloads()
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatal(err)
	}

	if *exp == "all" {
		for _, e := range experiments {
			if err := e.fn(opt); err != nil {
				fatal(err)
			}
		}
		return
	}
	for _, e := range experiments {
		if e.name == *exp {
			if err := e.fn(opt); err != nil {
				fatal(err)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
	printIndex(os.Stderr)
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// cloudSuite filters opt.workloads to the five CloudSuite workloads.
func cloudSuite(opt options) []string {
	var out []string
	for _, w := range opt.workloads {
		if w != "tpch" {
			out = append(out, w)
		}
	}
	return out
}

func hasTPCH(opt options) bool {
	for _, w := range opt.workloads {
		if w == "tpch" {
			return true
		}
	}
	return false
}

// writeCSV stores rows under the experiment's name.
func writeCSV(opt options, name string, header []string, rows [][]string) error {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(opt.outDir, name+".csv"), []byte(b.String()), 0o644)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func u64(v uint64) string { return strconv.FormatUint(v, 10) }

// telemetryPoints stamps the -telemetry spec on a figure's design
// points. SpeedupMany's baseline canonicalization strips the spec again,
// so the memoized baselines keep their usual cache keys and record
// nothing.
func (o options) telemetryPoints(points []uc.Run) []uc.Run {
	if !o.telemetry.Enabled() {
		return points
	}
	out := make([]uc.Run, len(points))
	for i, r := range points {
		r.Telemetry = o.telemetry
		out[i] = r
	}
	return out
}

// writeEpochsCSV writes a figure's companion per-epoch CSV: one row per
// (workload, size, design, epoch) from the design results' timelines —
// the microarchitectural counters resolved in time instead of collapsed
// into whole-run totals.
func writeEpochsCSV(opt options, name string, results []uc.SpeedupResult) error {
	header := []string{"workload", "size", "design", "epoch", "start_events", "end_events",
		"uipc", "instructions", "cycles", "hit_ratio",
		"waypred_hits", "waypred_lookups",
		"trigger_misses", "underpred_misses", "singleton_skips",
		"offchip_read_bytes", "offchip_write_bytes",
		"stacked_busy_cycles", "offchip_busy_cycles", "l2_hit_ratio"}
	var rows [][]string
	for _, r := range results {
		res := r.Design
		if res.Timeline == nil {
			continue
		}
		for _, e := range res.Timeline.Epochs {
			rows = append(rows, []string{
				res.Run.Workload, config.SizeLabel(res.Run.Capacity), string(res.Run.Design),
				strconv.Itoa(e.Index), strconv.Itoa(e.StartEvents), strconv.Itoa(e.EndEvents),
				f4(e.UIPC), u64(e.Instructions), u64(e.Cycles), f4(e.HitRatio()),
				u64(e.WayPredHits), u64(e.WayPredLookups),
				u64(e.TriggerMisses), u64(e.UnderpredMisses), u64(e.SingletonSkips),
				u64(e.OffchipReadBytes), u64(e.OffchipWriteBytes),
				u64(e.StackedBusyCycles), u64(e.OffchipBusyCycles), f4(e.L2HitRatio()),
			})
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return writeCSV(opt, name, header, rows)
}

// table1 prints the qualitative comparison (static, from §I Table I).
func table1(opt options) error {
	fmt.Println("== Table I: qualitative comparison (AC / FC / UC) ==")
	rows := [][]string{
		{"No SRAM tag overhead", "yes", "no", "yes"},
		{"Low hit latency", "yes", "no", "yes"},
		{"High hit rate", "no", "yes", "yes"},
		{"High effective capacity", "no", "yes", "yes"},
		{"Scalability", "yes", "no", "yes"},
	}
	fmt.Printf("%-28s %-6s %-6s %-6s\n", "Property", "AC", "FC", "UC")
	for _, r := range rows {
		fmt.Printf("%-28s %-6s %-6s %-6s\n", r[0], r[1], r[2], r[3])
	}
	fmt.Println()
	return writeCSV(opt, "table1", []string{"property", "alloy", "footprint", "unison"}, rows)
}

// table5 reproduces the predictor-accuracy table: MP for Alloy, FP for
// Footprint and both Unison page sizes, WP for Unison. 1 GB caches (8 GB
// for TPC-H), as in the paper.
func table5(opt options) error {
	fmt.Println("== Table V: predictor accuracy (1GB cache; 8GB for TPC-H) ==")
	header := []string{"workload", "ac_mp_acc", "ac_mp_overfetch", "fc_fp_acc", "fc_fp_overfetch",
		"uc960_fp_acc", "uc960_fp_overfetch", "uc960_wp_acc",
		"uc1984_fp_acc", "uc1984_fp_overfetch", "uc1984_wp_acc"}
	var rows [][]string
	fmt.Printf("%-18s %8s %8s | %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"workload", "MP.acc", "MP.ovf", "FC.acc", "FC.ovf", "U960.acc", "U960.ovf", "U960.wp", "U1984.ac", "U1984.ov", "U1984.wp")
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignUnison1984}
	var points []uc.Run
	for _, w := range opt.workloads {
		capacity := uint64(1 << 30)
		if w == "tpch" {
			capacity = 8 << 30
		}
		for _, d := range designs {
			points = append(points, opt.run(w, d, capacity))
		}
	}
	results, err := opt.executeMany(points)
	if err != nil {
		return err
	}
	for i, w := range opt.workloads {
		acRes, fcRes := results[len(designs)*i], results[len(designs)*i+1]
		u960Res, u1984Res := results[len(designs)*i+2], results[len(designs)*i+3]

		row := []string{w,
			f1(acRes.Design.MP.Percent()), f1(acRes.Design.MPOverfetchPct),
			f1(fcRes.Design.FP.Percent()), f1(fcRes.Design.FO.Percent()),
			f1(u960Res.Design.FP.Percent()), f1(u960Res.Design.FO.Percent()), f1(u960Res.Design.WP.Percent()),
			f1(u1984Res.Design.FP.Percent()), f1(u1984Res.Design.FO.Percent()), f1(u1984Res.Design.WP.Percent()),
		}
		rows = append(rows, row)
		fmt.Printf("%-18s %8s %8s | %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
			w, row[1], row[2], row[3], row[4], row[5], row[6], row[7], row[8], row[9], row[10])
	}
	fmt.Println()
	return writeCSV(opt, "table5", header, rows)
}

// fig5 reproduces the associativity sweep: Unison miss ratio with 1, 4 and
// 32 ways at a small and a large cache size per workload.
func fig5(opt options) error {
	fmt.Println("== Figure 5: Unison Cache miss ratio vs associativity ==")
	header := []string{"workload", "size", "ways1", "ways4", "ways32"}
	var rows [][]string
	fmt.Printf("%-18s %-8s %8s %8s %8s\n", "workload", "size", "1-way", "4-way", "32-way")
	waySweep := []int{1, 4, 32}
	var points []uc.Run
	for _, w := range opt.workloads {
		sizes := []uint64{128 << 20, 1 << 30}
		if w == "tpch" {
			sizes = []uint64{1 << 30, 8 << 30}
		}
		points = append(points, uc.Sweep{
			Base:       opt.run(w, uc.DesignUnison, 0),
			Capacities: sizes,
			UnisonWays: waySweep,
		}.Points()...)
	}
	results, err := opt.executeMany(points)
	if err != nil {
		return err
	}
	for at := 0; at < len(results); at += len(waySweep) {
		var miss [3]float64
		for i := range waySweep {
			miss[i] = results[at+i].MissRatioPct()
		}
		w, size := points[at].Workload, points[at].Capacity
		rows = append(rows, []string{w, config.SizeLabel(size), f1(miss[0]), f1(miss[1]), f1(miss[2])})
		fmt.Printf("%-18s %-8s %8s %8s %8s\n", w, config.SizeLabel(size), f1(miss[0]), f1(miss[1]), f1(miss[2]))
	}
	fmt.Println()
	return writeCSV(opt, "fig5", header, rows)
}

// fig6 reproduces the miss-ratio comparison across designs and sizes.
func fig6(opt options) error {
	fmt.Println("== Figure 6: miss ratio, Alloy vs Footprint vs Unison ==")
	header := []string{"workload", "size", "alloy", "footprint", "unison"}
	var rows [][]string
	fmt.Printf("%-18s %-8s %8s %8s %8s\n", "workload", "size", "alloy", "footpr", "unison")
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison}
	var points []uc.Run
	for _, w := range opt.workloads {
		sizes := config.CloudSuiteSizes()
		if w == "tpch" {
			sizes = config.TPCHSizes()
		}
		points = append(points, uc.Sweep{
			Base:       opt.run(w, "", 0),
			Capacities: sizes,
			Designs:    designs,
		}.Points()...)
	}
	results, err := opt.executeMany(points)
	if err != nil {
		return err
	}
	for at := 0; at < len(results); at += len(designs) {
		var miss [3]float64
		for i := range designs {
			miss[i] = results[at+i].MissRatioPct()
		}
		w, size := points[at].Workload, points[at].Capacity
		rows = append(rows, []string{w, config.SizeLabel(size), f1(miss[0]), f1(miss[1]), f1(miss[2])})
		fmt.Printf("%-18s %-8s %8s %8s %8s\n", w, config.SizeLabel(size), f1(miss[0]), f1(miss[1]), f1(miss[2]))
	}
	fmt.Println()
	return writeCSV(opt, "fig6", header, rows)
}

// fig7 reproduces the CloudSuite performance comparison: speedup over the
// no-DRAM-cache baseline for the four designs, plus the geometric mean.
func fig7(opt options) error {
	fmt.Println("== Figure 7: speedup over no-DRAM-cache baseline ==")
	header := []string{"workload", "size", "alloy", "footprint", "unison", "ideal"}
	var rows [][]string
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignIdeal}
	const rowFmt = "%-18s %-8s %8s %8s %8s %8s\n"
	fmt.Printf(rowFmt, "workload", "size", "alloy", "footpr", "unison", "ideal")
	geo := map[uc.DesignKind]map[uint64][]float64{}
	for _, d := range designs {
		geo[d] = map[uint64][]float64{}
	}
	// An empty workload filter must stay a no-op sweep: Sweep's
	// empty-axis fallback would otherwise inject the zero workload.
	var points []uc.Run
	if ws := cloudSuite(opt); len(ws) > 0 {
		points = uc.Sweep{
			Base:       opt.run("", "", 0),
			Workloads:  ws,
			Capacities: config.CloudSuiteSizes(),
			Designs:    designs,
		}.Points()
	}
	results, err := opt.speedupMany(opt.telemetryPoints(points))
	if err != nil {
		return err
	}
	for at := 0; at < len(results); at += len(designs) {
		var sp [4]float64
		for i, d := range designs {
			sp[i] = results[at+i].Speedup
			geo[d][points[at].Capacity] = append(geo[d][points[at].Capacity], sp[i])
		}
		w, size := points[at].Workload, points[at].Capacity
		rows = append(rows, []string{w, config.SizeLabel(size), f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(sp[3])})
		fmt.Printf(rowFmt, w, config.SizeLabel(size), f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(sp[3]))
	}
	for _, size := range config.CloudSuiteSizes() {
		var g [4]float64
		for i, d := range designs {
			v, err := stats.GeoMean(geo[d][size])
			if err != nil {
				continue
			}
			g[i] = v
		}
		rows = append(rows, []string{"geomean", config.SizeLabel(size), f2(g[0]), f2(g[1]), f2(g[2]), f2(g[3])})
		fmt.Printf(rowFmt, "geomean", config.SizeLabel(size), f2(g[0]), f2(g[1]), f2(g[2]), f2(g[3]))
	}
	if opt.telemetry.Enabled() {
		if err := writeEpochsCSV(opt, "fig7_epochs", results); err != nil {
			return err
		}
	}
	fmt.Println()
	return writeCSV(opt, "fig7", header, rows)
}

// fig8 reproduces the TPC-H scaling study: 1–8 GB caches.
func fig8(opt options) error {
	if !hasTPCH(opt) {
		return nil
	}
	fmt.Println("== Figure 8: TPC-H speedup, 1-8GB caches ==")
	header := []string{"size", "alloy", "footprint", "unison", "ideal"}
	var rows [][]string
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignIdeal}
	const rowFmt = "%-8s %8s %8s %8s %8s\n"
	fmt.Printf(rowFmt, "size", "alloy", "footpr", "unison", "ideal")
	points := uc.Sweep{
		Base:       opt.run("tpch", "", 0),
		Capacities: config.TPCHSizes(),
		Designs:    designs,
	}.Points()
	results, err := opt.speedupMany(opt.telemetryPoints(points))
	if err != nil {
		return err
	}
	for at := 0; at < len(results); at += len(designs) {
		var sp [4]float64
		for i := range designs {
			sp[i] = results[at+i].Speedup
		}
		size := points[at].Capacity
		rows = append(rows, []string{config.SizeLabel(size), f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(sp[3])})
		fmt.Printf(rowFmt, config.SizeLabel(size), f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(sp[3]))
	}
	if opt.telemetry.Enabled() {
		if err := writeEpochsCSV(opt, "fig8_epochs", results); err != nil {
			return err
		}
	}
	fmt.Println()
	return writeCSV(opt, "fig8", header, rows)
}
