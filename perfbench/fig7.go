package main

import (
	"runtime"
	"sync"
	"time"

	uc "unisoncache"
	"unisoncache/internal/dramcache"
)

// fig7Capacity is the labeled DRAM-cache capacity of the engine workloads.
const fig7Capacity = 1 << 30

// fig7WarmAccesses is the per-core length of the short sweep fig7-sweep's
// set-up runs, paging in the engine and growing the heap before timing.
const fig7WarmAccesses = 20_000

// dramCaptureCap bounds the design requests the traced run keeps for the
// isolated DRAM replay.
const dramCaptureCap = 1 << 19

var (
	fig7Workloads = []string{"data-serving", "web-search"}
	fig7Designs   = []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison, uc.DesignIdeal}
)

// fig7Plan is the paper's Figure 7 at 1 GB: every design over both
// workloads, one worker per CPU. accesses 0 keeps the default run length.
func fig7Plan(seed uint64, accesses int) uc.Plan {
	return uc.Plan{
		Points: uc.Sweep{
			Base:      uc.Run{Capacity: fig7Capacity, Seed: seed, AccessesPerCore: accesses},
			Workloads: fig7Workloads,
			Designs:   fig7Designs,
		}.Points(),
		Jobs: runtime.NumCPU(),
	}
}

// sweepEvents counts the events one SpeedupMany pass simulates: every
// design point plus one memoized baseline per workload.
func sweepEvents(res []uc.SpeedupResult) float64 {
	r := res[0].Design.Run
	return float64(len(res)+len(fig7Workloads)) * float64(r.AccessesPerCore) * float64(r.Cores)
}

// checkFig7 compares every point of a sweep with its reference.
func checkFig7(rep *report, res []uc.SpeedupResult, want []fig7Point) {
	if len(res) != len(want) {
		rep.check(false, "fig7: %d points, reference has %d", len(res), len(want))
		return
	}
	got := fig7Reference(res)
	for i := range got {
		rep.check(got[i] == want[i], "fig7 point %d: got %+v, reference %+v", i, got[i], want[i])
	}
}

func runFig7(opt options) (*report, error) {
	rep := newReport()
	seed := simSeed(opt.seed)
	ref, err := loadReference(seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		settle()
		t := time.Now()
		if _, err := uc.SpeedupMany(fig7Plan(seed, fig7WarmAccesses)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	plan := fig7Plan(seed, 0)
	if opt.trace {
		return rep, fig7Ledger(opt, rep, plan, ref)
	}
	// One request is one SpeedupMany of the whole figure; none is answered
	// from a stored result, so the cold latency is the request latency.
	var rates, walls []float64
	deadline := time.Now().Add(opt.seconds)
	for len(rates) < 3 || time.Now().Before(deadline) {
		settle()
		t := time.Now()
		res, err := uc.SpeedupMany(plan)
		if err != nil {
			return nil, err
		}
		dt := time.Since(t).Seconds()
		checkFig7(rep, res, ref.Fig7)
		rates = append(rates, sweepEvents(res)/dt)
		walls = append(walls, dt)
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("events_per_s", "1/s", median(rates))
	rep.reportRequests(walls)
	rep.set("cold_latency_p50_ms", "ms", 1e3*median(walls))
	rep.detail["setup_s"] = setups
	rep.detail["sweep_events_per_s"] = rates
	return rep, nil
}

// fig7Ledger is fig7-sweep's traced run. Plain passes (SpeedupMany with a
// timing-only Executor) and traced passes (an Executor that assembles each
// machine from wrapped layers) alternate until the budget is spent. The
// layer rows come from the last traced pass plus isolated SRAM and DRAM
// replays; the runner rows from the plain passes.
func fig7Ledger(opt options, rep *report, plan uc.Plan, ref reference) error {
	var (
		mu          sync.Mutex
		plainRes    = map[uc.Run]uc.Result{}
		runs        []tracedRun
		captured    []dramcache.Request
		busyNs      time.Duration
		plainWalls  []float64
		tracedWalls []float64
		busyFracs   []float64
	)
	origin := time.Now()
	plainPass := func() error {
		p := plan
		busyNs = 0
		p.Executor = func(r uc.Run) (uc.Result, error) {
			t := time.Now()
			res, err := uc.Execute(r)
			mu.Lock()
			busyNs += time.Since(t)
			plainRes[r] = res
			mu.Unlock()
			return res, err
		}
		t := time.Now()
		res, err := uc.SpeedupMany(p)
		if err != nil {
			return err
		}
		wall := time.Since(t)
		checkFig7(rep, res, ref.Fig7)
		plainWalls = append(plainWalls, wall.Seconds())
		busyFracs = append(busyFracs, busyNs.Seconds()/(wall.Seconds()*float64(p.Jobs)))
		return nil
	}
	tracedPass := func() error {
		p := plan
		runs = runs[:0]
		rep.spans = rep.spans[:0]
		p.Executor = func(r uc.Run) (uc.Result, error) {
			capN := 0
			if r.Design == uc.DesignNone && r.Workload == "data-serving" {
				capN = dramCaptureCap
			}
			begin := time.Since(origin)
			res, lt, reqs, err := tracedExecute(r, capN)
			if err != nil {
				return res, err
			}
			mu.Lock()
			defer mu.Unlock()
			runs = append(runs, tracedRun{r, res, lt})
			if capN > 0 {
				captured = reqs
			}
			rep.spans = append(rep.spans, span{
				Name:    "execute",
				StartMs: float64(begin.Microseconds()) / 1e3,
				DurMs:   float64(lt.wallNs) / 1e6,
				Attrs:   map[string]string{"workload": r.Workload, "design": string(r.Design)},
				Children: map[string]float64{
					"trace":  float64(lt.sourceNs) / 1e6,
					"design": float64(lt.designNs) / 1e6,
				},
			})
			return res, nil
		}
		t := time.Now()
		res, err := uc.SpeedupMany(p)
		if err != nil {
			return err
		}
		tracedWalls = append(tracedWalls, time.Since(t).Seconds())
		checkFig7(rep, res, ref.Fig7)
		return nil
	}
	deadline := origin.Add(opt.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		first, second := plainPass, tracedPass
		if round%2 == 1 {
			first, second = tracedPass, plainPass
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}

	// Fidelity: the assembled machines return exactly what Execute does.
	for _, tr := range runs {
		want, ok := plainRes[tr.run]
		rep.check(ok && sameJSON(tr.res, want), "traced %s/%s diverges from Execute", tr.run.Workload, tr.run.Design)
	}

	overhead := 100 * (median(tracedWalls)/median(plainWalls) - 1)
	if err := reportEngine(rep, runs, captured, overhead); err != nil {
		return err
	}
	rep.set("runner.busy_frac", "ratio", median(busyFracs))
	rep.set("runner.runs", "count", float64(len(runs)))
	rep.detail["plain_pass_s"] = plainWalls
	rep.detail["traced_pass_s"] = tracedWalls
	rep.detail["dram_captured_requests"] = len(captured)
	return nil
}
