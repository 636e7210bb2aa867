package main

import (
	"fmt"

	uc "unisoncache"
	"unisoncache/internal/config"
	"unisoncache/internal/dram"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

// table2 computes the key-characteristics comparison from the implemented
// geometometries and predictor sizings (paper Table II).
func table2(opt options) error {
	fmt.Println("== Table II: key characteristics (computed from the implementation) ==")
	u960 := mem.UnisonGeometry(15, 4)
	u1984 := mem.UnisonGeometry(31, 4)
	alloy := mem.AlloyGeometry()

	const eightGB = uint64(8) << 30
	fcTags := mem.SRAMTagBytes(eightGB, 2048, 12)
	acInDRAM := eightGB - eightGB/mem.RowBytes*uint64(alloy.DataBlocksPerRow())*mem.BlockSize
	uc960InDRAM := eightGB - eightGB/mem.RowBytes*uint64(u960.DataBlocksPerRow())*mem.BlockSize
	uc1984InDRAM := eightGB - eightGB/mem.RowBytes*uint64(u1984.DataBlocksPerRow())*mem.BlockSize

	mp := predictor.NewMissPredictor(16, 256)
	fp := predictor.NewFootprintPredictor(16384, 32)
	st := predictor.NewSingletonTable(256)
	wpSmall := predictor.NewWayPredictor(12, 4)
	wpLarge := predictor.NewWayPredictor(16, 4)

	rows := [][]string{
		{"associativity", "1 (direct)", "32", "4"},
		{"blocks_per_8KB_row", itoa(alloy.DataBlocksPerRow()), "128", itoa(u960.DataBlocksPerRow()) + "-" + itoa(u1984.DataBlocksPerRow())},
		{"sram_tags_at_8GB", "-", fmt.Sprintf("%.0fMB", float64(fcTags)/(1<<20)), "-"},
		{"indram_tags_at_8GB", fmt.Sprintf("%dMB (%.1f%%)", acInDRAM>>20, 100*alloy.MetadataFraction()),
			"-", fmt.Sprintf("%d-%dMB (%.1f-%.1f%%)", uc1984InDRAM>>20, uc960InDRAM>>20, 100*u1984.MetadataFraction(), 100*u960.MetadataFraction())},
		{"miss_predictor", fmt.Sprintf("%dB (96B/core)", mp.SizeBytes()), "-", "-"},
		{"way_predictor", "-", "-", fmt.Sprintf("%d-%dKB", wpSmall.SizeBytes()>>10, wpLarge.SizeBytes()>>10)},
		{"footprint_table", "-", fmt.Sprintf("%dKB", fp.SizeBytes()>>10), fmt.Sprintf("%dKB", fp.SizeBytes()>>10)},
		{"singleton_table", "-", fmt.Sprintf("%dKB", st.SizeBytes()>>10), fmt.Sprintf("%dKB", st.SizeBytes()>>10)},
	}
	fmt.Printf("%-22s %-18s %-14s %-22s\n", "Characteristic", "Alloy", "Footprint", "Unison")
	for _, r := range rows {
		fmt.Printf("%-22s %-18s %-14s %-22s\n", r[0], r[1], r[2], r[3])
	}
	fmt.Println()
	return writeCSV(opt, "table2", []string{"characteristic", "alloy", "footprint", "unison"}, rows)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// table4 prints the Footprint Cache tag-array scaling table used to
// parameterize the FC baseline (paper Table IV).
func table4(opt options) error {
	fmt.Println("== Table IV: Footprint Cache tag array vs capacity ==")
	header := []string{"size", "tag_mb", "latency_cycles"}
	var rows [][]string
	fmt.Printf("%-8s %10s %10s\n", "size", "tags(MB)", "latency")
	for _, p := range config.FCTagTable() {
		rows = append(rows, []string{config.SizeLabel(p.CacheBytes), f2(p.TagMB), itoa(int(p.LatencyCycles))})
		fmt.Printf("%-8s %10.2f %10d\n", config.SizeLabel(p.CacheBytes), p.TagMB, p.LatencyCycles)
	}
	fmt.Println()
	return writeCSV(opt, "table4", header, rows)
}

// ablationWay quantifies §V-B's way-prediction claim: versus fetching all
// ways in parallel (bandwidth) and versus serializing tag-then-data
// (latency), at 1 GB.
func ablationWay(opt options) error {
	fmt.Println("== Ablation (§V-B): way prediction vs alternatives, 1GB ==")
	header := []string{"workload", "variant", "speedup", "miss_pct", "stacked_read_bytes_per_ki"}
	var rows [][]string
	fmt.Printf("%-18s %-14s %8s %8s %12s\n", "workload", "variant", "speedup", "miss%", "stackedB/KI")
	variants := []struct {
		name string
		mod  func(*uc.Run)
	}{
		{"predicted", func(r *uc.Run) {}},
		{"fetch-all", func(r *uc.Run) { r.DisableWayPrediction = true }},
		{"serialized", func(r *uc.Run) { r.SerializeTagData = true }},
	}
	var points []uc.Run
	var names []string
	for _, w := range opt.workloads {
		if w == "tpch" {
			continue
		}
		for _, v := range variants {
			run := opt.run(w, uc.DesignUnison, 1<<30)
			v.mod(&run)
			points = append(points, run)
			names = append(names, v.name)
		}
	}
	// The three variants per workload share one memoized baseline.
	results, err := uc.SpeedupMany(opt.plan(points))
	if err != nil {
		return err
	}
	for i, r := range results {
		w, res := points[i].Workload, r.Design
		sbki := float64(res.Stacked.BytesRead) * 1000 / float64(res.Instructions)
		rows = append(rows, []string{w, names[i], f2(r.Speedup), f1(res.MissRatioPct()), f1(sbki)})
		fmt.Printf("%-18s %-14s %8s %8s %12s\n", w, names[i], f2(r.Speedup), f1(res.MissRatioPct()), f1(sbki))
	}
	fmt.Println()
	return writeCSV(opt, "ablation_way", header, rows)
}

// ablationSingleton quantifies §III-A.4: singleton bypass preserves
// effective capacity on singleton-heavy workloads.
func ablationSingleton(opt options) error {
	fmt.Println("== Ablation (§III-A.4): singleton bypass, 1GB ==")
	header := []string{"workload", "variant", "miss_pct", "offchip_bytes_per_ki", "speedup"}
	var rows [][]string
	fmt.Printf("%-18s %-14s %8s %12s %8s\n", "workload", "variant", "miss%", "offB/KI", "speedup")
	var points []uc.Run
	var names []string
	for _, w := range opt.workloads {
		if w == "tpch" {
			continue
		}
		for _, disable := range []bool{false, true} {
			name := "bypass-on"
			if disable {
				name = "bypass-off"
			}
			run := opt.run(w, uc.DesignUnison, 1<<30)
			run.DisableSingleton = disable
			points = append(points, run)
			names = append(names, name)
		}
	}
	results, err := uc.SpeedupMany(opt.plan(points))
	if err != nil {
		return err
	}
	for i, r := range results {
		w, res := points[i].Workload, r.Design
		rows = append(rows, []string{w, names[i], f1(res.MissRatioPct()), f1(res.OffchipBytesPerKI), f2(r.Speedup)})
		fmt.Printf("%-18s %-14s %8s %12s %8s\n", w, names[i], f1(res.MissRatioPct()), f1(res.OffchipBytesPerKI), f2(r.Speedup))
	}
	fmt.Println()
	return writeCSV(opt, "ablation_singleton", header, rows)
}

// energy reproduces the §V-D discussion's proxy metric: off-chip DRAM row
// activations per kilo-instruction. Footprint-granularity transfers (FC,
// UC) activate one row per ~10 blocks; Alloy activates per block.
func energy(opt options) error {
	fmt.Println("== Energy (§V-D): off-chip activations/KI and dynamic DRAM energy/KI, 1GB ==")
	header := []string{"workload", "alloy_acts", "footprint_acts", "unison_acts", "none_acts",
		"alloy_nj_ki", "footprint_nj_ki", "unison_nj_ki", "none_nj_ki"}
	var rows [][]string
	fmt.Printf("%-18s %8s %8s %8s %8s | %8s %8s %8s %8s\n",
		"workload", "AC.act", "FC.act", "UC.act", "none", "AC.nJ", "FC.nJ", "UC.nJ", "none.nJ")
	designs := []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignNone}
	var points []uc.Run
	for _, w := range opt.workloads {
		if w == "tpch" {
			continue
		}
		for _, d := range designs {
			points = append(points, opt.run(w, d, 1<<30))
		}
	}
	results, err := uc.ExecuteMany(opt.plan(points))
	if err != nil {
		return err
	}
	for at := 0; at < len(results); at += len(designs) {
		var acts, njs [4]float64
		for i := range designs {
			res := results[at+i]
			ki := float64(res.Instructions) / 1000
			acts[i] = float64(res.Offchip.Activations) / ki
			njs[i] = dram.SystemDynamicPJ(res.Stacked, res.Offchip) / 1000 / ki
		}
		w := points[at].Workload
		rows = append(rows, []string{w, f2(acts[0]), f2(acts[1]), f2(acts[2]), f2(acts[3]),
			f2(njs[0]), f2(njs[1]), f2(njs[2]), f2(njs[3])})
		fmt.Printf("%-18s %8s %8s %8s %8s | %8s %8s %8s %8s\n",
			w, f2(acts[0]), f2(acts[1]), f2(acts[2]), f2(acts[3]), f2(njs[0]), f2(njs[1]), f2(njs[2]), f2(njs[3]))
	}
	fmt.Println()
	return writeCSV(opt, "energy", header, rows)
}

// priorart compares Unison Cache against the full lineage of block-based
// designs §II-A discusses: Loh-Hill (serialized in-DRAM tags + MissMap) and
// Alloy Cache, at 1 GB.
func priorArt(opt options) error {
	fmt.Println("== Prior art (§II-A): Loh-Hill vs Alloy vs Unison, 1GB ==")
	header := []string{"workload", "design", "miss_pct", "speedup", "avg_read_lat"}
	var rows [][]string
	fmt.Printf("%-18s %-10s %8s %8s %10s\n", "workload", "design", "miss%", "speedup", "readLat")
	var points []uc.Run
	for _, w := range opt.workloads {
		if w == "tpch" {
			continue
		}
		for _, d := range []uc.DesignKind{uc.DesignLohHill, uc.DesignAlloy, uc.DesignUnison} {
			points = append(points, opt.run(w, d, 1<<30))
		}
	}
	results, err := uc.SpeedupMany(opt.plan(points))
	if err != nil {
		return err
	}
	for i, r := range results {
		w, d, res := points[i].Workload, points[i].Design, r.Design
		rows = append(rows, []string{w, string(d), f1(res.MissRatioPct()), f2(r.Speedup), f1(res.AvgDRAMReadLatency)})
		fmt.Printf("%-18s %-10s %8s %8s %10s\n", w, d, f1(res.MissRatioPct()), f2(r.Speedup), f1(res.AvgDRAMReadLatency))
	}
	fmt.Println()
	return writeCSV(opt, "priorart", header, rows)
}

// conflictModel prints the §III-A.5 analytical model: the page-vs-block
// direct-mapped conflict amplification.
func conflictModel(opt options) error {
	fmt.Println("== Analytical conflict model (§III-A.5), 1GB cache ==")
	header := []string{"unit", "conflict_ratio_vs_block"}
	var rows [][]string
	cacheBlocks := uint64(1 << 30 / 64)
	fmt.Printf("%-12s %24s\n", "unit", "conflicts vs block-grain")
	for _, unit := range []uint64{1, 15, 31, 32} {
		ratio := mem.ConflictRatio(cacheBlocks, unit, 20_000)
		label := fmt.Sprintf("%dB", unit*64)
		rows = append(rows, []string{label, f1(ratio)})
		fmt.Printf("%-12s %24s\n", label, f1(ratio))
	}
	fmt.Println("(the paper quotes ~500x worst case for 2KB pages; the model gives P^2)")
	fmt.Println()
	return writeCSV(opt, "conflict_model", header, rows)
}
