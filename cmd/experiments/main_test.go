package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uc "unisoncache"
	"unisoncache/internal/config"
	"unisoncache/internal/stats"
)

// TestExperimentIndex: the -list output names every experiment exactly
// once, with a paper mapping, plus the "all" pseudo-entry.
func TestExperimentIndex(t *testing.T) {
	var buf bytes.Buffer
	printIndex(&buf)
	out := buf.String()
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment %q listed twice", e.name)
		}
		seen[e.name] = true
		if !strings.Contains(out, e.name) {
			t.Errorf("-list output missing %q", e.name)
		}
		if e.paper == "" || e.fn == nil {
			t.Errorf("experiment %q lacks a paper mapping or runner", e.name)
		}
	}
	if !strings.Contains(out, "all") {
		t.Error("-list output missing the all pseudo-entry")
	}
}

// TestFig7CSVMatchesSerial pins the acceptance criterion: the concurrent,
// baseline-memoized fig7 must write a CSV byte-identical to the
// pre-refactor serial path — one Execute per design point plus one
// DesignNone Execute per (workload, size) cell.
func TestFig7CSVMatchesSerial(t *testing.T) {
	opt := options{
		accesses:  2_000,
		seed:      1,
		workloads: []string{"web-search", "data-serving"},
		outDir:    t.TempDir(),
	}
	if err := fig7(opt); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(opt.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// The serial reference, transcribed from the pre-runner fig7.
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignIdeal}
	var b strings.Builder
	b.WriteString("workload,size,alloy,footprint,unison,ideal\n")
	geo := map[uc.DesignKind]map[uint64][]float64{}
	for _, d := range designs {
		geo[d] = map[uint64][]float64{}
	}
	for _, w := range cloudSuite(opt) {
		for _, size := range config.CloudSuiteSizes() {
			base, err := uc.Execute(uc.Run{Workload: w, Design: uc.DesignNone, Capacity: size,
				AccessesPerCore: opt.accesses, Seed: opt.seed})
			if err != nil {
				t.Fatal(err)
			}
			var sp [4]float64
			for i, d := range designs {
				res, err := uc.Execute(uc.Run{Workload: w, Design: d, Capacity: size,
					AccessesPerCore: opt.accesses, Seed: opt.seed})
				if err != nil {
					t.Fatal(err)
				}
				sp[i] = res.UIPC / base.UIPC
				geo[d][size] = append(geo[d][size], sp[i])
			}
			fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s\n", w, config.SizeLabel(size), f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(sp[3]))
		}
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
		fmt.Fprintf(&b, "geomean,%s,%s,%s,%s,%s\n", config.SizeLabel(size), f2(g[0]), f2(g[1]), f2(g[2]), f2(g[3]))
	}

	if string(got) != b.String() {
		t.Fatalf("fig7.csv diverges from serial reference:\n--- got ---\n%s\n--- want ---\n%s", got, b.String())
	}
}

// TestFig7TelemetryCSV: -telemetry writes the companion per-epoch CSV
// while leaving fig7.csv byte-identical to the telemetry-free run — the
// recording is observable only in the extra file.
func TestFig7TelemetryCSV(t *testing.T) {
	plain := options{
		accesses:  2_000,
		seed:      1,
		workloads: []string{"web-search"},
		outDir:    t.TempDir(),
	}
	if err := fig7(plain); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(plain.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}

	tele := plain
	tele.outDir = t.TempDir()
	tele.telemetry = uc.TelemetrySpec{EpochEvents: 200}
	if err := fig7(tele); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(tele.outDir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig7.csv changed under -telemetry:\n--- with ---\n%s\n--- without ---\n%s", got, want)
	}

	data, err := os.ReadFile(filepath.Join(tele.outDir, "fig7_epochs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	wantHeader := "workload,size,design,epoch,start_events,end_events," +
		"uipc,instructions,cycles,hit_ratio,waypred_hits,waypred_lookups," +
		"trigger_misses,underpred_misses,singleton_skips," +
		"offchip_read_bytes,offchip_write_bytes," +
		"stacked_busy_cycles,offchip_busy_cycles,l2_hit_ratio"
	if lines[0] != wantHeader {
		t.Fatalf("epochs header = %q, want %q", lines[0], wantHeader)
	}
	if len(lines) < 2 {
		t.Fatal("fig7_epochs.csv has no epoch rows")
	}
	// Every design point contributes epochs; spot-check the vocabulary.
	body := strings.Join(lines[1:], "\n")
	for _, d := range []string{"alloy", "footprint", "unison", "ideal"} {
		if !strings.Contains(body, ","+d+",") {
			t.Errorf("fig7_epochs.csv records no epochs for design %q", d)
		}
	}
	for i, line := range lines[1:] {
		if cols := strings.Split(line, ","); len(cols) != 20 {
			t.Fatalf("epoch row %d has %d columns, want 20: %q", i, len(cols), line)
		}
	}
}
