package trace

import "fmt"

// RegionBlocks is the footprint-bearing region size in 64 B blocks: 2 KB,
// matching Footprint Cache's page granularity so every design sees the same
// spatial structure.
const RegionBlocks = 32

// RegionBytes is the region size in bytes.
const RegionBytes = RegionBlocks * 64

// Profile is the statistical description of one workload. The six presets
// below substitute for the CloudSuite and TPC-H traces of §IV-D; their
// parameters are tuned so the per-workload orderings the paper reports
// (spatial locality, footprint predictability, working-set pressure) hold.
type Profile struct {
	// Name identifies the workload ("web-search", ...). The facade's
	// RegisterWorkload sets it to the registered name.
	Name string
	// WorkingSetBytes is the touched data footprint; regions are drawn
	// from a population of WorkingSetBytes / 2 KB. The proportional-scaling
	// divisor (the facade's Run.ScaleDivisor) divides it at execution time,
	// so declare the full-scale footprint here.
	WorkingSetBytes uint64
	// ZipfTheta is the region-popularity skew (0 uniform, ~1 very hot).
	ZipfTheta float64
	// PCs is the function-pool size; footprints correlate with these.
	PCs int
	// PCZipfTheta skews which functions run most often.
	PCZipfTheta float64
	// DensityMin/DensityMax bound per-PC footprint density (fraction of
	// the 32 region blocks a visit touches).
	DensityMin, DensityMax float64
	// SingletonPCFrac is the fraction of PCs whose visits touch a single
	// block (pointer-chasing functions).
	SingletonPCFrac float64
	// PatternNoise is the per-block probability that one visit deviates
	// from the PC's base pattern — the irreducible footprint
	// mispredictability.
	PatternNoise float64
	// Scan selects contiguous-run footprints (column scans, postings
	// lists) instead of scattered ones (object graphs). Runs are also
	// alignment-robust, which matters for Unison's 960 B pages.
	Scan bool
	// AffinityClasses partitions the region space into code-affinity
	// classes: a function's visits stay within its own class except for
	// an AffinityEscape fraction. 0 disables partitioning. This models
	// the code/data correlation footprint prediction exploits [10],[27].
	AffinityClasses int
	// AffinityEscape is the probability a visit leaves its class.
	AffinityEscape float64
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	// GapMean is the mean number of non-memory instructions between
	// consecutive memory accesses.
	GapMean float64
	// RepeatMean is the mean extra accesses to a touched block within a
	// visit (temporal reuse absorbed by the L1/L2).
	RepeatMean float64
}

// Validate sanity-checks the profile.
func (p *Profile) Validate() error {
	if p.WorkingSetBytes < RegionBytes {
		return fmt.Errorf("trace: %s: working set below one region", p.Name)
	}
	if p.PCs <= 0 {
		return fmt.Errorf("trace: %s: need at least one PC", p.Name)
	}
	if p.DensityMin <= 0 || p.DensityMax > 1 || p.DensityMin > p.DensityMax {
		return fmt.Errorf("trace: %s: density bounds [%v,%v] invalid", p.Name, p.DensityMin, p.DensityMax)
	}
	if p.PatternNoise < 0 || p.PatternNoise > 0.5 {
		return fmt.Errorf("trace: %s: pattern noise %v outside [0,0.5]", p.Name, p.PatternNoise)
	}
	if p.SingletonPCFrac < 0 || p.SingletonPCFrac > 1 || p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("trace: %s: fractions out of range", p.Name)
	}
	return nil
}

// Regions returns the region population size.
func (p *Profile) Regions() uint64 { return p.WorkingSetBytes / RegionBytes }

// Profiles returns the six workload presets keyed by name.
//
// Tuning rationale (per §IV-D and the Figure 5–8 discussion):
//   - data-analytics: Map-Reduce; pointer-intensive hash-table lookups →
//     the lowest spatial locality, many singleton functions, noisy
//     patterns. The workload where block- and page-based designs converge.
//   - data-serving: Cassandra-style key-value store; hot rows → strong
//     skew, dense footprints; the most memory-bound workload (largest
//     speedups in Figure 7).
//   - software-testing: symbolic-execution engine (Cloud9); irregular,
//     noisy footprints → the lowest footprint-prediction accuracy in
//     Table V.
//   - web-search: index serving; postings-list scans → the highest
//     spatial locality and near-perfect footprints.
//   - web-serving: PHP/database stack; mixed behaviour, moderate skew.
//   - tpch: MonetDB column scans over a >100 GB dataset; dense scan
//     footprints over an enormous, mildly skewed population — only
//     multi-gigabyte caches capture it (Figures 6 and 8).
func Profiles() map[string]*Profile {
	list := []*Profile{
		{
			Name:            "data-analytics",
			Scan:            false,
			AffinityClasses: 512,
			AffinityEscape:  0.01,
			WorkingSetBytes: 5 << 30,
			ZipfTheta:       0.68,
			PCs:             512,
			PCZipfTheta:     0.55,
			DensityMin:      0.04,
			DensityMax:      0.16,
			SingletonPCFrac: 0.45,
			PatternNoise:    0.03,
			WriteFrac:       0.12,
			GapMean:         40,
			RepeatMean:      0.6,
		},
		{
			Name:            "data-serving",
			Scan:            true,
			AffinityClasses: 192,
			AffinityEscape:  0.02,
			WorkingSetBytes: 6 << 30,
			ZipfTheta:       0.8,
			PCs:             192,
			PCZipfTheta:     0.5,
			DensityMin:      0.3,
			DensityMax:      0.75,
			SingletonPCFrac: 0.08,
			PatternNoise:    0.02,
			WriteFrac:       0.2,
			GapMean:         6,
			RepeatMean:      0.8,
		},
		{
			Name:            "software-testing",
			Scan:            false,
			AffinityClasses: 1024,
			AffinityEscape:  0.02,
			WorkingSetBytes: 4 << 30,
			ZipfTheta:       0.78,
			PCs:             1024,
			PCZipfTheta:     0.4,
			DensityMin:      0.15,
			DensityMax:      0.6,
			SingletonPCFrac: 0.15,
			PatternNoise:    0.14,
			WriteFrac:       0.18,
			GapMean:         32,
			RepeatMean:      1.0,
		},
		{
			Name:            "web-search",
			Scan:            true,
			AffinityClasses: 128,
			AffinityEscape:  0.02,
			WorkingSetBytes: 4 << 30,
			ZipfTheta:       0.78,
			PCs:             128,
			PCZipfTheta:     0.5,
			DensityMin:      0.8,
			DensityMax:      1.0,
			SingletonPCFrac: 0.04,
			PatternNoise:    0.015,
			WriteFrac:       0.05,
			GapMean:         44,
			RepeatMean:      1.2,
		},
		{
			Name:            "web-serving",
			Scan:            false,
			AffinityClasses: 384,
			AffinityEscape:  0.01,
			WorkingSetBytes: 5 << 30,
			ZipfTheta:       0.78,
			PCs:             384,
			PCZipfTheta:     0.6,
			DensityMin:      0.25,
			DensityMax:      0.7,
			SingletonPCFrac: 0.12,
			PatternNoise:    0.06,
			WriteFrac:       0.15,
			GapMean:         32,
			RepeatMean:      0.9,
		},
		{
			Name:            "tpch",
			Scan:            true,
			AffinityClasses: 96,
			AffinityEscape:  0.02,
			WorkingSetBytes: 96 << 30,
			ZipfTheta:       0.65,
			PCs:             96,
			PCZipfTheta:     0.4,
			DensityMin:      0.45,
			DensityMax:      0.9,
			SingletonPCFrac: 0.06,
			PatternNoise:    0.04,
			WriteFrac:       0.06,
			GapMean:         80,
			RepeatMean:      0.7,
		},
	}
	m := make(map[string]*Profile, len(list))
	for _, p := range list {
		m[p.Name] = p
	}
	return m
}

// Names returns the canonical workload order used by the paper's figures.
func Names() []string {
	return []string{"data-analytics", "data-serving", "software-testing", "web-search", "web-serving", "tpch"}
}
