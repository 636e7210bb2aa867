package unisoncache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"unisoncache/internal/canonjson"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/stats"
)

// runJSON mirrors Run field-for-field so UnmarshalJSON can use the stock
// decoding machinery without recursing into itself. The conversion is
// checked at compile time by the Run(...) cast below.
type runJSON Run

// UnmarshalJSON decodes a Run strictly: unknown JSON fields are rejected
// (a misspelled "Capasity" fails at decode time instead of silently
// simulating the default), and so are unknown designs — previously a
// mistyped design only surfaced deep inside buildDesign, after the
// workload streams had already been built. The design set is static, so
// this check can never disagree between processes. Workload names are
// deliberately NOT checked here: they live in a per-process registry, and
// a decoded Run often arrives inside a *response* (a service Result
// echoing its Run) from a process with workloads this one never
// registered — request boundaries validate workloads explicitly with
// ValidateNames instead. Empty Design/Workload pass: sweeps fill them
// from the template and trace replays take the capture header's workload.
//
// Canonical input, as Marshal writes it without Sampling or Telemetry, is
// read in one pass (readRun); anything else goes, untouched, to a strict
// encoding/json decoder, whose value and error are the result. The Run is
// replaced whole on success and left as it was on error.
func (r *Run) UnmarshalJSON(data []byte) error {
	cr := canonjson.NewReader(data)
	if run := readRun(&cr); cr.End() {
		*r = run
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a runJSON
	if err := dec.Decode(&a); err != nil {
		return fmt.Errorf("unisoncache: decoding Run: %w", err)
	}
	run := Run(a)
	if run.Design != "" && !knownDesign(run.Design) {
		return fmt.Errorf("unisoncache: unknown design %q (have %v)", run.Design, Designs())
	}
	*r = run
	return nil
}

// readRun reads a Run object on the canonical path. Sampling, Telemetry,
// an unknown or case-folded key and an unknown design fail the reader, so
// the strict decoder takes them.
func readRun(cr *canonjson.Reader) (run Run) {
	cr.Begin('{')
	for cr.Next('}') {
		switch string(cr.Key()) {
		case "Workload":
			run.Workload = cr.Str()
		case "Design":
			run.Design = DesignKind(cr.Str())
		case "Capacity":
			run.Capacity = cr.Uint()
		case "AccessesPerCore":
			run.AccessesPerCore = cr.Int()
		case "Seed":
			run.Seed = cr.Uint()
		case "Cores":
			run.Cores = cr.Int()
		case "ScaleDivisor":
			run.ScaleDivisor = cr.Int()
		case "TracePath":
			run.TracePath = cr.Str()
		case "Segments":
			run.Segments = cr.Int()
		case "UnisonWays":
			run.UnisonWays = cr.Int()
		case "DisableWayPrediction":
			run.DisableWayPrediction = cr.Bool()
		case "SerializeTagData":
			run.SerializeTagData = cr.Bool()
		case "DisableSingleton":
			run.DisableSingleton = cr.Bool()
		case "FCWays":
			run.FCWays = cr.Int()
		default:
			cr.Fail()
		}
	}
	if run.Design != "" && !knownDesign(run.Design) {
		cr.Fail()
	}
	return run
}

// resultFields is Result without its UnmarshalJSON, for encoding/json.
type resultFields Result

// UnmarshalJSON decodes a Result exactly as encoding/json decodes the
// struct. Canonical input, as Marshal writes it for a run without CI or
// Timeline, is read in one pass (readResult); anything else goes,
// untouched, to encoding/json.
func (res *Result) UnmarshalJSON(data []byte) error {
	cr := canonjson.NewReader(data)
	v := *res
	if readResult(&cr, &v); cr.End() {
		*res = v
		return nil
	}
	err := json.Unmarshal(data, (*resultFields)(res))
	if te, ok := err.(*json.UnmarshalTypeError); ok && te.Struct == "resultFields" {
		te.Struct = "Result" // the type the caller decodes into
	}
	return err
}

// readResult reads a Result object on the canonical path, in place as
// encoding/json decodes one: absent keys keep their values, the last of
// duplicate keys wins, and a ratio decodes into the one already there. CI,
// Timeline and an unknown or case-folded key fail the reader.
func readResult(cr *canonjson.Reader, res *Result) {
	cr.Begin('{')
	for cr.Next('}') {
		switch string(cr.Key()) {
		case "UIPC":
			res.UIPC = cr.Float()
		case "Instructions":
			res.Instructions = cr.Uint()
		case "Cycles":
			res.Cycles = cr.Uint()
		case "Design":
			readSnapshot(cr, &res.Design)
		case "Stacked":
			readDRAMStats(cr, &res.Stacked)
		case "Offchip":
			readDRAMStats(cr, &res.Offchip)
		case "L2":
			s := &res.L2
			readUints(cr, cacheStatsKeys, &s.Accesses, &s.Hits, &s.Writebacks)
		case "L1HitRate":
			res.L1HitRate = cr.Float()
		case "OffchipBytesPerKI":
			res.OffchipBytesPerKI = cr.Float()
		case "AvgDRAMReadLatency":
			res.AvgDRAMReadLatency = cr.Float()
		case "Run":
			res.Run = readRun(cr)
		default:
			cr.Fail()
		}
	}
}

// The keys of the counter structs readUints reads, in field order.
var (
	countersKeys   = []string{"Reads", "ReadHits", "Writes", "TriggerMisses", "UnderpredMisses", "SingletonSkips", "OffchipReadBytes", "OffchipWriteBytes"}
	dramStatsKeys  = []string{"Reads", "Writes", "RowHits", "Activations", "BytesRead", "BytesWritten", "BusBusyCPU"}
	cacheStatsKeys = []string{"Accesses", "Hits", "Writebacks"}
	ratioKeys      = []string{"Num", "Den"}
)

// readSnapshot reads a design's statistics snapshot.
func readSnapshot(cr *canonjson.Reader, s *dramcache.Snapshot) {
	c := &s.Counters
	cr.Begin('{')
	for cr.Next('}') {
		switch k := cr.Key(); string(k) {
		case "Name":
			s.Name = cr.Str()
		case "FP":
			readRatio(cr, &s.FP)
		case "FO":
			readRatio(cr, &s.FO)
		case "WP":
			readRatio(cr, &s.WP)
		case "MP":
			readRatio(cr, &s.MP)
		case "MPOverfetchPct":
			s.MPOverfetchPct = cr.Float()
		default:
			setUint(cr, k, countersKeys, &c.Reads, &c.ReadHits, &c.Writes, &c.TriggerMisses,
				&c.UnderpredMisses, &c.SingletonSkips, &c.OffchipReadBytes, &c.OffchipWriteBytes)
		}
	}
}

// readDRAMStats reads a DRAM part's activity counters.
func readDRAMStats(cr *canonjson.Reader, s *dram.Stats) {
	readUints(cr, dramStatsKeys, &s.Reads, &s.Writes, &s.RowHits, &s.Activations, &s.BytesRead, &s.BytesWritten, &s.BusBusyCPU)
}

// readRatio reads a predictor ratio as encoding/json decodes a pointer:
// null sets it to nil, and an object decodes into the ratio already there,
// or into a new one.
func readRatio(cr *canonjson.Reader, p **stats.Ratio) {
	if cr.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(stats.Ratio)
	}
	readUints(cr, ratioKeys, &(*p).Num, &(*p).Den)
}

// readUints reads an object of uint64 fields: the key keys[i] into
// fields[i] (see setUint).
func readUints(cr *canonjson.Reader, keys []string, fields ...*uint64) {
	cr.Begin('{')
	for cr.Next('}') {
		setUint(cr, cr.Key(), keys, fields...)
	}
}

// setUint reads a uint64 into fields[i] for the i with keys[i] == key, and
// fails the reader when there is none.
func setUint(cr *canonjson.Reader, key []byte, keys []string, fields ...*uint64) {
	for i, k := range keys {
		if string(key) == k {
			*fields[i] = cr.Uint()
			return
		}
	}
	cr.Fail()
}

// ValidateNames checks the Run's symbolic fields against what this
// process can actually execute: an unknown design or a workload that is
// neither built in nor registered fails with the valid choices listed.
// Zero values pass — defaulting and trace-header reconciliation give
// them meaning later. The simulation service calls this on every
// submitted Run, so a mistyped name is rejected at the request boundary
// instead of failing mid-sweep.
func (r Run) ValidateNames() error {
	if r.Design != "" && !knownDesign(r.Design) {
		return fmt.Errorf("unisoncache: unknown design %q (have %v)", r.Design, Designs())
	}
	if r.Workload != "" {
		if _, ok := lookupProfile(r.Workload); !ok {
			return fmt.Errorf("unisoncache: unknown workload %q (have %v)", r.Workload, Workloads())
		}
	}
	return nil
}

// knownDesign reports whether d is one of Designs().
func knownDesign(d DesignKind) bool { return slices.Contains(designs, d) }
