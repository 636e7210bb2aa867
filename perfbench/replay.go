package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	uc "unisoncache"
	"unisoncache/internal/checkpoint"
	"unisoncache/internal/dramcache"
)

// replayWorkload is the workload observed-replay captures, and
// replayAccesses its per-core length: half the default, so a timed
// region holds several rounds of all eight executions.
const (
	replayWorkload = "web-serving"
	replayAccesses = 200_000
)

var replayDesigns = []uc.DesignKind{uc.DesignUnison, uc.DesignAlloy}

// replayMode is one way observed-replay executes the capture.
type replayMode struct {
	name  string
	apply func(*uc.Run)
}

var replayModes = []replayMode{
	{"plain", func(*uc.Run) {}},
	{"sampled", func(r *uc.Run) { r.Sampling = uc.DefaultSampleSpec() }},
	{"telemetry", func(r *uc.Run) { r.Telemetry = uc.DefaultTelemetrySpec() }},
	// The repeat path: set-up already ran the serial-with-save pass, so
	// both segments replay concurrently from the stored checkpoints.
	{"segments", func(r *uc.Run) { r.Segments = 2 }},
}

// captureRun is the live run observed-replay records.
func captureRun(seed uint64) uc.Run {
	return uc.Run{Workload: replayWorkload, Capacity: fig7Capacity, Seed: seed, AccessesPerCore: replayAccesses}
}

// replayRun replays the capture at path through design d.
func replayRun(path string, d uc.DesignKind) uc.Run {
	return uc.Run{TracePath: path, Design: d, Capacity: fig7Capacity}
}

// record writes the .utrace capture of r to path.
func record(r uc.Run, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := uc.RecordTrace(r, w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayEvents counts the events an Execute simulated, all cores.
func replayEvents(res uc.Result) float64 {
	if res.CI != nil {
		return float64(res.CI.SimulatedEvents)
	}
	return float64(res.Run.AccessesPerCore) * float64(res.Run.Cores)
}

// checkReplay verifies one mode's Result: plain and sampled against the
// committed reference, telemetry and segments byte-equal to plain.
func checkReplay(rep *report, mode string, d uc.DesignKind, res, plain uc.Result, want replayRef) {
	switch mode {
	case "plain":
		rep.check(resultDigest(res) == want.Plain, "%s plain replay diverges from its reference", d)
	case "sampled":
		rep.check(resultDigest(res) == want.Sampled, "%s sampled replay diverges from its reference (UIPC %v, reference %v)", d, res.UIPC, want.SampledUIPC)
	default:
		rep.check(sameJSON(res.Results, plain.Results), "%s %s replay diverges from the plain Result", d, mode)
	}
}

// replaySetup records the capture setupRepeats times (setup_s takes the
// median) and then runs each design's first Segments=2 execution, which
// replays serially while saving the checkpoints the timed repeats restore
// from. It returns the capture path, setup_s and the save runs' times.
func replaySetup(opt options, rep *report, ref reference) (string, float64, []float64, error) {
	seed := simSeed(opt.seed)
	path := filepath.Join(opt.work, replayWorkload+".utrace")
	var records []float64
	for i := 0; i < setupRepeats; i++ {
		settle()
		t := time.Now()
		if err := record(captureRun(seed), path); err != nil {
			return "", 0, nil, err
		}
		records = append(records, time.Since(t).Seconds())
	}
	var saves []float64
	total := median(records)
	for _, d := range replayDesigns {
		r := replayRun(path, d)
		r.Segments = 2
		settle()
		t := time.Now()
		res, err := uc.Execute(r)
		if err != nil {
			return "", 0, nil, err
		}
		saves = append(saves, time.Since(t).Seconds())
		total += saves[len(saves)-1]
		rep.check(resultDigest(res) == ref.Replay[d].Plain, "%s serial-with-save replay diverges from its reference", d)
	}
	rep.detail["record_s"] = records
	rep.detail["save_s"] = saves
	return path, total, saves, nil
}

func runReplay(opt options) (*report, error) {
	rep := newReport()
	ref, err := loadReference(simSeed(opt.seed))
	if err != nil {
		return nil, err
	}
	path, setup, saves, err := replaySetup(opt, rep, ref)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return rep, replayLedger(opt, rep, ref, path, saves)
	}
	// Each of the eight executions repeats once per round; events_per_s is
	// their summed events over the sum of their median times, so one
	// perturbed execution does not move the figure. One request is one
	// round; none is answered from a stored result, so the cold latency is
	// the request latency.
	times := make([][]float64, len(replayDesigns)*len(replayModes))
	events := make([]float64, len(times))
	var rounds []float64
	deadline := time.Now().Add(opt.seconds)
	for len(rounds) < 3 || time.Now().Before(deadline) {
		var round float64
		for i, d := range replayDesigns {
			var plain uc.Result
			for j, m := range replayModes {
				r := replayRun(path, d)
				m.apply(&r)
				settle()
				t := time.Now()
				res, err := uc.Execute(r)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", d, m.name, err)
				}
				dt := time.Since(t).Seconds()
				k := i*len(replayModes) + j
				times[k] = append(times[k], dt)
				events[k] = replayEvents(res)
				round += dt
				if m.name == "plain" {
					plain = res
				}
				checkReplay(rep, m.name, d, res, plain, ref.Replay[d])
			}
		}
		rounds = append(rounds, round)
	}
	var total, wall float64
	for k := range times {
		total += events[k]
		wall += median(times[k])
	}
	rep.set("setup_s", "s", setup)
	rep.set("events_per_s", "1/s", total/wall)
	rep.reportRequests(rounds)
	rep.set("cold_latency_p50_ms", "ms", 1e3*median(rounds))
	rep.detail["execute_s"] = times
	return rep, nil
}

// replayLedger is observed-replay's traced run. Each round executes every
// mode of every design through Execute (timing each one) plus a traced
// plain replay on a machine assembled from wrapped layers; the ledger adds
// an isolated SRAM replay of the capture and the checkpoint volume a
// Segments=2 first run saves.
func replayLedger(opt options, rep *report, ref reference, path string, saves []float64) error {
	modeNs := map[string]float64{}
	var (
		plainWalls, tracedWall []float64
		detailed, simulated    float64
		epochs                 int
		captured               []dramcache.Request
		plainRuns              = map[uc.DesignKind]uc.Run{}
	)
	origin := time.Now()
	deadline := origin.Add(opt.seconds)
	var traced []tracedRun
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, d := range replayDesigns {
			var plain uc.Result
			for _, m := range replayModes {
				r := replayRun(path, d)
				m.apply(&r)
				t := time.Now()
				res, err := uc.Execute(r)
				if err != nil {
					return fmt.Errorf("%s %s: %w", d, m.name, err)
				}
				dt := time.Since(t)
				modeNs[m.name] += float64(dt)
				switch m.name {
				case "plain":
					plain = res
					plainRuns[d] = res.Run
					plainWalls = append(plainWalls, dt.Seconds())
				case "sampled":
					detailed += float64(res.CI.DetailedEvents)
					simulated += float64(res.CI.SimulatedEvents)
				case "telemetry":
					if res.Timeline != nil {
						epochs = len(res.Timeline.Epochs)
					}
				}
				checkReplay(rep, m.name, d, res, plain, ref.Replay[d])
			}
			begin := time.Since(origin)
			capN := 0
			if captured == nil {
				capN = dramCaptureCap
			}
			res, lt, reqs, err := tracedExecute(plain.Run, capN)
			if err != nil {
				return err
			}
			if capN > 0 {
				captured = reqs
			}
			rep.check(sameJSON(res, plain), "traced %s replay diverges from Execute", d)
			tracedWall = append(tracedWall, float64(lt.wallNs)/1e9)
			traced = append(traced, tracedRun{plain.Run, res, lt})
			rep.spans = append(rep.spans, span{
				Name:     "execute",
				StartMs:  float64(begin.Microseconds()) / 1e3,
				DurMs:    float64(lt.wallNs) / 1e6,
				Attrs:    map[string]string{"workload": replayWorkload, "design": string(d), "mode": "plain"},
				Children: map[string]float64{"trace": float64(lt.sourceNs) / 1e6, "design": float64(lt.designNs) / 1e6},
			})
		}
	}
	overhead := 100 * (median(tracedWall)/median(plainWalls) - 1)
	if err := reportEngine(rep, traced, captured, overhead); err != nil {
		return err
	}

	var ckBytes []float64
	for _, d := range replayDesigns {
		n, err := checkpointBytes(plainRuns[d])
		if err != nil {
			return err
		}
		ckBytes = append(ckBytes, float64(n))
	}
	rep.set("sampled.time_ratio", "ratio", modeNs["sampled"]/modeNs["plain"])
	rep.set("telemetry.time_ratio", "ratio", modeNs["telemetry"]/modeNs["plain"])
	rep.set("segments.repeat_ratio", "ratio", modeNs["segments"]/modeNs["plain"])
	rep.set("segments.save_s", "s", median(saves))
	rep.set("checkpoint.bytes_per_run", "bytes", median(ckBytes))
	rep.set("sampled.detailed_frac", "ratio", ratio(detailed, simulated))
	rep.set("telemetry.epochs", "count", float64(epochs))
	return nil
}

// checkpointBytes is the snapshot volume a Segments=2 first run of r
// saves: the mid-run segment boundary and the warmup boundary, encoded as
// the snapshot store holds them.
func checkpointBytes(r uc.Run) (int, error) {
	m, err := newMachine(r, false, 0)
	if err != nil {
		return 0, err
	}
	prefix, err := uc.RunKey(r)
	if err != nil {
		return 0, err
	}
	m.m.BeginRun(r.AccessesPerCore)
	targets := []uint64{m.m.TotalSteps() / 2, m.m.WarmSteps()}
	slices.Sort(targets)
	var n int
	for _, t := range targets {
		m.m.RunTo(t)
		w := checkpoint.NewWriter()
		m.m.SaveState(w)
		if err := w.Err(); err != nil {
			return 0, err
		}
		n += len(checkpoint.EncodeSnapshot(prefix, t, w.Bytes()))
	}
	return n, nil
}
