package main

// The per-layer ledger: wrappers that time every call into the event
// source and the DRAM-cache design, the benchmark's own assembly of the
// machine Execute builds, and isolated replays of the SRAM and DRAM
// layers. Nothing here changes the simulator; checkFidelity proves that a
// machine assembled here returns exactly what Execute returns.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	uc "unisoncache"
	"unisoncache/internal/cache"
	"unisoncache/internal/config"
	"unisoncache/internal/core"
	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

// timedSource wraps one core's event source and times every pull.
type timedSource struct {
	inner   trace.Batcher
	ns      int64
	events  int64
	batches int64
}

func (s *timedSource) Next() trace.Event {
	t := time.Now()
	ev := s.inner.Next()
	s.ns += int64(time.Since(t))
	s.events++
	s.batches++
	return ev
}

func (s *timedSource) NextBatch(dst []trace.Event) int {
	t := time.Now()
	n := s.inner.NextBatch(dst)
	s.ns += int64(time.Since(t))
	s.events += int64(n)
	s.batches++
	return n
}

// timedDesign wraps the design under test and times every call into it;
// the time includes the DRAM controller work the design does. The first
// cap(captured) requests are kept for the isolated DRAM replay.
type timedDesign struct {
	dramcache.Design
	ns       int64
	reqs     int64
	calls    int64
	captured []dramcache.Request
}

func (d *timedDesign) Access(r dramcache.Request) dramcache.Response {
	t := time.Now()
	resp := d.Design.Access(r)
	d.ns += int64(time.Since(t))
	d.reqs++
	d.calls++
	if len(d.captured) < cap(d.captured) {
		d.captured = append(d.captured, r)
	}
	return resp
}

func (d *timedDesign) AccessBatch(reqs []dramcache.Request, resps []dramcache.Response) {
	t := time.Now()
	d.Design.AccessBatch(reqs, resps)
	d.ns += int64(time.Since(t))
	d.reqs += int64(len(reqs))
	d.calls++
	if room := cap(d.captured) - len(d.captured); room > 0 {
		d.captured = append(d.captured, reqs[:min(room, len(reqs))]...)
	}
}

// liveSources returns the synthetic per-core streams Execute(r) replays:
// the workload's profile with its working set divided by the scale
// divisor, seeded by (r.Seed, core).
func liveSources(r uc.Run) ([]trace.Source, error) {
	prof, ok := trace.Profiles()[r.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.Workload)
	}
	scaled := *prof
	scaled.WorkingSetBytes = max(prof.WorkingSetBytes/uint64(r.ScaleDivisor), trace.RegionBytes)
	out := make([]trace.Source, r.Cores)
	for i := range out {
		s, err := trace.NewStream(&scaled, r.Seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// replaySources opens r's capture and returns its per-core sources.
func replaySources(r uc.Run) ([]trace.Source, error) {
	f, err := os.Open(r.TracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, replays, err := trace.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Source, len(replays))
	for i, s := range replays {
		out[i] = s
	}
	return out, nil
}

// sources returns the event sources of a defaulted run.
func sources(r uc.Run) ([]trace.Source, error) {
	if r.TracePath != "" {
		return replaySources(r)
	}
	return liveSources(r)
}

// newDesign builds the design Execute builds for r: simulated structures
// sized by the scaled capacity, latency parameters by the labeled one.
func newDesign(r uc.Run, stacked, offchip *dram.Controller) (dramcache.Design, error) {
	simCap := max(r.Capacity/uint64(r.ScaleDivisor), mem.RowBytes)
	switch r.Design {
	case uc.DesignUnison:
		return core.New(core.Config{CapacityBytes: simCap, LabelBytes: r.Capacity, PageBlocks: 15, Ways: r.UnisonWays}, stacked, offchip)
	case uc.DesignAlloy:
		return dramcache.NewAlloy(simCap, r.Cores, stacked, offchip)
	case uc.DesignFootprint:
		return dramcache.NewFootprint(dramcache.FCConfig{
			CapacityBytes: simCap,
			Ways:          r.FCWays,
			TagLatency:    config.FCTagLatency(r.Capacity),
		}, stacked, offchip)
	case uc.DesignIdeal:
		return dramcache.NewIdeal(stacked), nil
	case uc.DesignNone:
		return dramcache.NewNone(offchip), nil
	}
	return nil, fmt.Errorf("design %q is not part of the benchmark", r.Design)
}

// machineConfig is the core and SRAM configuration Execute builds for r:
// Table III with the L2 scaled by the run's divisor (floor 128 KB).
func machineConfig(r uc.Run) sim.Config {
	cfg := sim.Default()
	cfg.Cores = r.Cores
	cfg.L2.SizeBytes = max(cfg.L2.SizeBytes/r.ScaleDivisor, 128<<10)
	return cfg
}

// machine is one simulated system assembled from the layers' public
// constructors. When timed, its sources and design are wrapped.
type machine struct {
	m       *sim.Machine
	sources []*timedSource
	design  *timedDesign
}

// newMachine assembles the machine Execute(r) runs; r must be defaulted
// (a Plan.Executor argument or a Result.Run). captureCap bounds the design
// requests a timed machine keeps.
func newMachine(r uc.Run, timed bool, captureCap int) (*machine, error) {
	srcs, err := sources(r)
	if err != nil {
		return nil, err
	}
	stacked, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		return nil, err
	}
	offchip, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		return nil, err
	}
	design, err := newDesign(r, stacked, offchip)
	if err != nil {
		return nil, err
	}
	out := &machine{}
	if timed {
		out.design = &timedDesign{Design: design, captured: make([]dramcache.Request, 0, captureCap)}
		design = out.design
		out.sources = make([]*timedSource, len(srcs))
		for i, s := range srcs {
			out.sources[i] = &timedSource{inner: trace.AsBatcher(s)}
			srcs[i] = out.sources[i]
		}
	}
	out.m, err = sim.New(machineConfig(r), srcs, design, stacked, offchip)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// layerTimes is where one traced Execute spent its time.
type layerTimes struct {
	events   int64 // events simulated, all cores
	wallNs   int64 // the whole Execute: assembly and replay
	sourceNs int64
	batches  int64
	designNs int64
	reqs     int64 // design requests
	calls    int64 // Access plus AccessBatch calls
}

// tracedRun is one traced Execute and where its time went.
type tracedRun struct {
	run uc.Run
	res uc.Result
	lt  layerTimes
}

// tracedExecute is Execute(r) on a machine with every layer timed. It
// returns the Result Execute returns, the layer times, and the captured
// design requests.
func tracedExecute(r uc.Run, captureCap int) (uc.Result, layerTimes, []dramcache.Request, error) {
	start := time.Now()
	m, err := newMachine(r, true, captureCap)
	if err != nil {
		return uc.Result{}, layerTimes{}, nil, err
	}
	res := uc.Result{Results: m.m.Run(r.AccessesPerCore), Run: r}
	lt := layerTimes{
		events:   int64(r.AccessesPerCore) * int64(r.Cores),
		wallNs:   int64(time.Since(start)),
		designNs: m.design.ns,
		reqs:     m.design.reqs,
		calls:    m.design.calls,
	}
	for _, s := range m.sources {
		lt.sourceNs += s.ns
		lt.batches += s.batches
	}
	return res, lt, m.design.captured, nil
}

// sameJSON reports whether two values encode to identical JSON.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// sramLedger is the isolated L1+L2 replay of one run's event streams.
type sramLedger struct {
	events   int64
	accesses int64 // L1 plus L2 lookups
	ns       int64
	l1, l2   cache.Stats // after the warmup fraction, summed over L1s
}

func (s sramLedger) nsPerEvent() float64 { return ratio(float64(s.ns), float64(s.events)) }

// replaySRAM replays r's per-core event streams through private L1s and a
// shared L2 built with the geometry Execute uses: an L1 miss writes any
// dirty L1 victim into the L2, then looks the block up there. Cores take
// turns one event at a time — the real run interleaves by simulated clock,
// so its L2 ratio is shown beside this one. Only cache lookups are timed.
func replaySRAM(r uc.Run) (sramLedger, error) {
	srcs, err := sources(r)
	if err != nil {
		return sramLedger{}, err
	}
	cfg := machineConfig(r)
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return sramLedger{}, err
	}
	const chunk = 256
	l1s := make([]*cache.Cache, len(srcs))
	bufs := make([][]trace.Event, len(srcs))
	batchers := make([]trace.Batcher, len(srcs))
	for c := range srcs {
		if l1s[c], err = cache.New(cfg.L1); err != nil {
			return sramLedger{}, err
		}
		bufs[c] = make([]trace.Event, chunk)
		batchers[c] = trace.AsBatcher(srcs[c])
	}
	var led sramLedger
	// tally folds the current counters into the access total and returns
	// the summed L1 stats.
	tally := func() cache.Stats {
		var l1 cache.Stats
		for _, c := range l1s {
			s := c.Stats()
			l1.Accesses += s.Accesses
			l1.Hits += s.Hits
		}
		led.accesses += int64(l1.Accesses + l2.Stats().Accesses)
		return l1
	}
	warm := int(float64(r.AccessesPerCore) * cfg.WarmupFrac)
	for done := 0; done < r.AccessesPerCore; {
		n := min(chunk, r.AccessesPerCore-done)
		if done < warm {
			n = min(n, warm-done)
		}
		for c, b := range batchers {
			if got := b.NextBatch(bufs[c][:n]); got != n {
				return sramLedger{}, fmt.Errorf("core %d source ended after %d events", c, done+got)
			}
		}
		t := time.Now()
		for k := 0; k < n; k++ {
			for c, l1 := range l1s {
				ev := &bufs[c][k]
				block := ev.Addr.Block()
				res := l1.Access(block, ev.Write)
				if res.Hit {
					continue
				}
				if res.Writeback {
					l2.Access(res.WritebackBlock, true)
				}
				l2.Access(block, false)
			}
		}
		led.ns += int64(time.Since(t))
		done += n
		if done == warm {
			tally()
			for _, c := range l1s {
				c.ResetStats()
			}
			l2.ResetStats()
		}
	}
	led.l1 = tally()
	led.l2 = l2.Stats()
	led.events = int64(r.AccessesPerCore) * int64(len(srcs))
	return led, nil
}

// dramLedger is the isolated replay of a captured design request stream
// into one DRAM part.
type dramLedger struct {
	nsPerAccess float64
	rowHitRatio float64
}

// replayDRAM drives the captured requests through a fresh design that
// talks to one part only — none for the off-chip part, ideal for the
// stacked one — three times over, and reports the median cost.
func replayDRAM(reqs []dramcache.Request, kind uc.DesignKind) (dramLedger, error) {
	if len(reqs) == 0 {
		return dramLedger{}, fmt.Errorf("no design requests were captured")
	}
	var led dramLedger
	var ns []float64
	for p := 0; p < 3; p++ {
		cfg := dram.OffchipConfig()
		if kind == uc.DesignIdeal {
			cfg = dram.StackedConfig()
		}
		ctl, err := dram.NewController(cfg)
		if err != nil {
			return dramLedger{}, err
		}
		var d dramcache.Design = dramcache.NewNone(ctl)
		if kind == uc.DesignIdeal {
			d = dramcache.NewIdeal(ctl)
		}
		t := time.Now()
		for _, r := range reqs {
			d.Access(r)
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(len(reqs)))
		led.rowHitRatio = ctl.Stats().RowHitRate()
	}
	led.nsPerAccess = median(ns)
	return led, nil
}

// ledger sums the layer rows of a set of traced Executes.
type ledger struct {
	events, wallNs, sourceNs, batches, designNs, sramNs float64
}

func (l *ledger) add(lt layerTimes, sramNsPerEvent float64) {
	ev := float64(lt.events)
	l.events += ev
	l.wallNs += float64(lt.wallNs)
	l.sourceNs += float64(lt.sourceNs)
	l.batches += float64(lt.batches)
	l.designNs += float64(lt.designNs)
	l.sramNs += sramNsPerEvent * ev
}

// selfNs is the engine's own time per event: the end-to-end time minus
// every layer row. Negative means a row double counts.
func (l *ledger) selfNs() float64 {
	return (l.wallNs - l.sourceNs - l.designNs - l.sramNs) / l.events
}

// designRow sums one design's traced requests.
type designRow struct {
	ns, events, reqs, calls, reads, readHits float64
}

func (d *designRow) add(tr tracedRun) {
	d.ns += float64(tr.lt.designNs)
	d.events += float64(tr.lt.events)
	d.reqs += float64(tr.lt.reqs)
	d.calls += float64(tr.lt.calls)
	d.reads += float64(tr.res.Design.Reads)
	d.readHits += float64(tr.res.Design.ReadHits)
}

// set reports the row under prefix ("design." or "design.<kind>.").
func (d *designRow) set(rep *report, prefix string) {
	rep.set(prefix+"ns_per_req", "ns", ratio(d.ns, d.reqs))
	rep.set(prefix+"reqs_per_event", "ratio", ratio(d.reqs, d.events))
	rep.set(prefix+"hit_ratio", "ratio", ratio(d.readHits, d.reads))
	rep.set(prefix+"batch_mean", "count", ratio(d.reqs, d.calls))
}

// reportEngine sets the engine rows every workload shares from its traced
// runs, plus one design row per design it ran. Each run is charged the
// isolated SRAM cost of its workload's first run; captured is the design
// request stream the DRAM rows replay; overheadPct is the traced runs'
// slowdown against plain Executes of the same runs. A negative row fails
// the run: it means a row double counts.
func reportEngine(rep *report, runs []tracedRun, captured []dramcache.Request, overheadPct float64) error {
	if len(runs) == 0 {
		return fmt.Errorf("no traced runs")
	}
	sram := map[string]sramLedger{}
	var sramAll sramLedger
	for _, tr := range runs {
		if _, done := sram[tr.run.Workload]; done {
			continue
		}
		led, err := replaySRAM(tr.run)
		if err != nil {
			return fmt.Errorf("SRAM replay of %s: %w", tr.run.Workload, err)
		}
		sram[tr.run.Workload] = led
		sramAll.ns += led.ns
		sramAll.accesses += led.accesses
		sramAll.events += led.events
		sramAll.l1.Accesses += led.l1.Accesses
		sramAll.l1.Hits += led.l1.Hits
		sramAll.l2.Accesses += led.l2.Accesses
		sramAll.l2.Hits += led.l2.Hits
	}
	var (
		l                          ledger
		all                        designRow
		perDesign                  = map[uc.DesignKind]*designRow{}
		runL1, runL2Hits, runL2Acc float64
	)
	for _, tr := range runs {
		l.add(tr.lt, sram[tr.run.Workload].nsPerEvent())
		runL1 += tr.res.L1HitRate
		runL2Hits += float64(tr.res.L2.Hits)
		runL2Acc += float64(tr.res.L2.Accesses)
		if tr.run.Design == uc.DesignNone {
			continue
		}
		d := perDesign[tr.run.Design]
		if d == nil {
			d = &designRow{}
			perDesign[tr.run.Design] = d
		}
		d.add(tr)
		all.add(tr)
	}
	rep.set("trace.ns_per_event", "ns", l.sourceNs/l.events)
	// The same row under the name of the source it timed.
	if runs[0].run.TracePath != "" {
		rep.set("trace.replay_ns_per_event", "ns", l.sourceNs/l.events)
	} else {
		rep.set("trace.stream_ns_per_event", "ns", l.sourceNs/l.events)
	}
	rep.set("trace.events_per_batch", "count", ratio(l.events, l.batches))
	rep.set("sram.ns_per_access", "ns", ratio(float64(sramAll.ns), float64(sramAll.accesses)))
	rep.set("sram.ns_per_event", "ns", l.sramNs/l.events)
	rep.set("sram.l1_hit_ratio", "ratio", sramAll.l1.HitRatio())
	rep.set("sram.l2_hit_ratio", "ratio", sramAll.l2.HitRatio())
	rep.set("sram.run_l1_hit_ratio", "ratio", runL1/float64(len(runs)))
	rep.set("sram.run_l2_hit_ratio", "ratio", ratio(runL2Hits, runL2Acc))
	rep.set("design.ns_per_event", "ns", l.designNs/l.events)
	all.set(rep, "design.")
	for kind, d := range perDesign {
		d.set(rep, "design."+string(kind)+".")
	}
	for _, part := range []struct {
		name string
		kind uc.DesignKind
	}{{"offchip", uc.DesignNone}, {"stacked", uc.DesignIdeal}} {
		led, err := replayDRAM(captured, part.kind)
		if err != nil {
			return err
		}
		rep.set("dram."+part.name+".ns_per_access", "ns", led.nsPerAccess)
		rep.set("dram."+part.name+".row_hit_ratio", "ratio", led.rowHitRatio)
	}
	rep.set("sim.self_ns_per_event", "ns", l.selfNs())
	rep.set("ledger.ns_per_event", "ns", l.wallNs/l.events)
	rep.set("ledger.tracing_overhead_pct", "%", overheadPct)
	rep.check(l.sourceNs >= 0 && l.designNs >= 0 && l.sramNs >= 0 && l.selfNs() >= 0,
		"ledger row negative (double counting): source %.1f design %.1f sram %.1f self %.1f ns/event",
		l.sourceNs/l.events, l.designNs/l.events, l.sramNs/l.events, l.selfNs())
	return nil
}
