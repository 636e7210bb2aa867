// Command perfbench is the repository's benchmark of record. Each
// invocation runs one workload for a fixed wall-clock budget, checks every
// output it produces, and prints one JSON result line as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload fig7-sweep --seed 3 --seconds 20 --trace 0
//
// The workloads, the layers each one stresses or bypasses, and the
// end-to-end metric every per-layer metric should move are recorded in
// layers.json:
//
//   - fig7-sweep: SpeedupMany over {data-serving, web-search} x {alloy,
//     footprint, unison, ideal} at 1 GB, default run length, Jobs = nproc.
//   - observed-replay: a recorded web-serving capture replayed through
//     unison and alloy, each in four modes (plain, Sampling, Telemetry,
//     Segments=2).
//   - service-mixed: a three-member in-process cluster driven by a
//     closed-loop cached reader and a closed-loop cold writer.
//
// Every workload reports every metric BENCHMARK.json names, read from the
// checkout root the benchmark runs in. A workload's requests are the calls
// its caller makes and waits on: for fig7-sweep one SpeedupMany of the
// whole figure, for observed-replay one pass over the eight executions, for
// service-mixed one cached read. No engine request is answered from a
// stored result, so on the engine workloads cold_latency_p50_ms is the
// request latency itself.
//
// --trace 0 measures the end-to-end metrics with nothing interposed.
// --trace 1 is the separate traced run: it times calls into each layer's
// public functions from this package's own wrappers and reports the
// per-layer ledger. The result line carries the per-layer rows every
// workload measures; the rows only some workloads have (per design, runner,
// sampling, telemetry, checkpoints, service) go on the "extra" line before
// it, as does service-mixed's latency_p99_ms, which the engine workloads
// have too few requests to report. layers.json maps every row, listed or
// extra, to the layer it measures. Every invocation writes a record
// stamped with the seed, Go version, GOMAXPROCS and nproc (plus the traced
// run's spans) to .bench_build/records.
//
// The engine workloads simulate seed 1 + (seed mod 16), so every run has a
// committed reference in reference.json. Regenerate it with
// -record-reference only after an intended change to simulated results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// checkout root it runs from.
const buildDir = ".bench_build"

// setupRepeats is how many times each workload repeats its set-up;
// setup_s is the median.
const setupRepeats = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one traced operation — an Execute or a request — with the time
// its layers accounted for.
type span struct {
	Name     string             `json:"name"`
	StartMs  float64            `json:"start_ms"`
	DurMs    float64            `json:"dur_ms"`
	Attrs    map[string]string  `json:"attrs,omitempty"`
	Children map[string]float64 `json:"children_ms,omitempty"`
}

// report collects one invocation's metrics, its correctness tally and the
// detail written to its record.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	spans     []span
	detail    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one verified operation; ok false counts it as failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// reportRequests sets the caller's request rate and median latency from
// the seconds each request took. The rate counts only time spent waiting on
// requests, not the benchmark's own checks between them.
func (r *report) reportRequests(secs []float64) {
	var busy float64
	for _, s := range secs {
		busy += s
	}
	r.set("req_per_s", "1/s", ratio(float64(len(secs)), busy))
	r.set("latency_p50_ms", "ms", 1e3*median(secs))
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	work    string // scratch directory, removed on exit
}

// workload is one benchmark workload with its single run length.
type workload struct {
	run    func(options) (*report, error)
	length string
}

var workloads = map[string]workload{
	"fig7-sweep":      {runFig7, "default AccessesPerCore (400000) x 16 cores per run"},
	"observed-replay": {runReplay, strconv.Itoa(replayAccesses) + " AccessesPerCore x 16 cores per capture"},
	"service-mixed":   {runService, strconv.Itoa(serviceAccesses) + " AccessesPerCore x 16 cores per run"},
}

// simSeed maps the benchmark seed onto the simulator seeds reference.json
// covers.
func simSeed(seed uint64) uint64 { return 1 + seed%referenceSlots }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig7-sweep, observed-replay or service-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured wall-clock budget in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	refPath := fs.String("record-reference", "", "recompute reference.json from the current code, write it to this path and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(buildDir, "work"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if *refPath != "" {
		return recordReference(*refPath, work)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1, work: work}
	want, err := manifestMetrics(manifestPath, opt.trace)
	if err != nil {
		return err
	}
	rep, err := w.run(opt)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if !opt.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", "MB", rss)
	}
	reported, rest, err := splitMetrics(rep.metrics, want)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	out := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   reported,
	}
	rep.detail["extra"] = rest
	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"sim_seed":   simSeed(*seed),
		"trace":      *traced,
		"seconds":    *seconds,
		"run_length": w.length,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
	if err := writeRecord(*name, *seed, *traced, stamp, out, rep); err != nil {
		return err
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Println("record", string(line))
	if len(rest) > 0 {
		if line, err = json.Marshal(rest); err != nil {
			return err
		}
		fmt.Println("extra", string(line))
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// manifestPath is BENCHMARK.json, relative to the checkout root the
// benchmark runs from.
const manifestPath = "BENCHMARK.json"

// manifestMetric is one metric BENCHMARK.json names.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifestMetrics returns the metrics, name to unit, that the result line
// of a run must carry: the end-to-end ones, or the per-layer ones when
// traced.
func manifestMetrics(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list (run from the repository root): %w", err)
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	out := map[string]string{}
	for _, x := range list {
		out[x.Name] = x.Unit
	}
	return out, nil
}

// splitMetrics separates the metrics a run measured into the ones the
// result line carries (every name in want, each in its unit) and the rest.
// A missing or mismatched metric, or one that is not a finite number, is
// an error: the result line must never omit a metric.
func splitMetrics(got map[string]metric, want map[string]string) (reported, rest map[string]metric, err error) {
	reported, rest = map[string]metric{}, map[string]metric{}
	var missing []string
	for name, unit := range want {
		m, ok := got[name]
		if !ok || m.Unit != unit {
			missing = append(missing, name+" ("+unit+")")
			continue
		}
		reported[name] = m
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		return nil, nil, fmt.Errorf("not measured: %s", strings.Join(missing, ", "))
	}
	for name, m := range got {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		if _, ok := want[name]; !ok {
			rest[name] = m
		}
	}
	return reported, rest, nil
}

// writeRecord saves the stamped record of this invocation, spans included.
func writeRecord(name string, seed uint64, traced int, stamp map[string]any, out result, rep *report) error {
	dir := filepath.Join(buildDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{
		"stamp":    stamp,
		"result":   out,
		"failures": rep.failures,
		"detail":   rep.detail,
		"spans":    rep.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced))
	return os.WriteFile(path, blob, 0o644)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
