package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	uc "unisoncache"
	"unisoncache/client"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/serve"
	"unisoncache/internal/store"
)

const (
	// serviceMembers is the cluster size.
	serviceMembers = 3
	// serviceAccesses is the per-core length of every service run, hot and
	// cold alike: small, so a cold run's latency is the service's path
	// around a short simulation.
	serviceAccesses = 4_000
	// hotRuns is the size of the reader's prepopulated hot set.
	hotRuns = 16
)

// serviceRun is the i-th small run of the service workload.
func serviceRun(i int, seed uint64) uc.Run {
	return uc.Run{
		Workload:        fig7Workloads[i%len(fig7Workloads)],
		Design:          fig7Designs[(i/len(fig7Workloads))%len(fig7Designs)],
		Capacity:        fig7Capacity,
		AccessesPerCore: serviceAccesses,
		Seed:            seed,
	}
}

// member is one in-process daemon: a loopback httptest server in front of
// a serve.Server with its own store.
type member struct {
	ts  *httptest.Server
	srv *serve.Server
	st  *store.Store
}

// cluster is the workload's set of members.
type cluster struct {
	members []*member
	urls    []string
}

// startCluster boots n members with stores under dir. execute, when
// non-nil, replaces each daemon's engine call.
func startCluster(dir string, n int, execute func(uc.Run) (uc.Result, error)) (*cluster, error) {
	c := &cluster{}
	handlers := make([]http.Handler, n)
	ready := make(chan struct{})
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-ready
			handlers[i].ServeHTTP(w, r)
		}))
		c.members = append(c.members, &member{ts: ts})
		c.urls = append(c.urls, ts.URL)
	}
	for i, m := range c.members {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("member-%d", i)), store.Options{})
		if err != nil {
			close(ready)
			c.stop()
			return nil, err
		}
		m.st = st
		m.srv = serve.New(serve.Config{Self: c.urls[i], Peers: c.urls, Store: st, Execute: execute})
		handlers[i] = m.srv.Handler()
	}
	close(ready)
	return c, nil
}

// stop drains every member, then closes the listeners and stores.
func (c *cluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, m := range c.members {
		if m.srv != nil {
			if err := m.srv.Drain(ctx); err != nil {
				keep(err)
			}
		}
	}
	for _, m := range c.members {
		m.ts.Close()
		if m.st != nil {
			if err := m.st.Close(); err != nil {
				keep(err)
			}
		}
	}
	return first
}

// scrape reads every member's /metrics.
func (c *cluster) scrape(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(c.urls))
	for i, u := range c.urls {
		m, err := client.New(u).Metrics(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// histDelta is the change in a histogram family's _sum and _count between
// two scrapes of the same members, over every series whose labels contain
// label ("" matches all).
func histDelta(before, after []map[string]float64, family, label string) (sum, count float64) {
	for i, m := range after {
		for key, v := range m {
			name, labels, _ := strings.Cut(key, "{")
			if label != "" && !strings.Contains(labels, label) {
				continue
			}
			switch name {
			case family + "_sum":
				sum += v - before[i][key]
			case family + "_count":
				count += v - before[i][key]
			}
		}
	}
	return sum, count
}

// meanDelta is the mean observation of a histogram family between two
// scrapes (0 when nothing was observed).
func meanDelta(before, after []map[string]float64, family, label string) float64 {
	sum, count := histDelta(before, after, family, label)
	return ratio(sum, count)
}

// counterDelta is the change in a counter summed over members.
func counterDelta(before, after []map[string]float64, name string) float64 {
	var d float64
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}

// mustJSON encodes a Result for byte comparison; an encoding failure
// yields a marker that never equals a real encoding.
func mustJSON(res uc.Result) string {
	blob, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(blob)
}

// coldOp is one of the writer's submissions.
type coldOp struct {
	run uc.Run
	res uc.Result
	err error
	ms  float64
}

// execLog records the daemons' engine calls in the traced run.
type execLog struct {
	mu sync.Mutex
	ms map[uint64]float64 // by run seed
}

func (l *execLog) execute(r uc.Run) (uc.Result, error) {
	t := time.Now()
	res, err := uc.Execute(r)
	l.mu.Lock()
	l.ms[r.Seed] += float64(time.Since(t).Nanoseconds()) / 1e6
	l.mu.Unlock()
	return res, err
}

// tracedColdRuns bounds how many cold runs the traced run re-executes on a
// machine assembled from wrapped layers.
const tracedColdRuns = 128

// coldLedger is the engine part of service-mixed's traced run: the first
// cold runs, re-executed in process both plainly and on a traced machine
// (alternating which goes first), each checked against the served Result.
func coldLedger(rep *report, served []uc.Result) error {
	var (
		runs              []tracedRun
		captured          []dramcache.Request
		plainNs, tracedNs float64
	)
	for i, want := range served[:min(len(served), tracedColdRuns)] {
		r := want.Run
		plain := func() error {
			t := time.Now()
			res, err := uc.Execute(r)
			plainNs += float64(time.Since(t))
			rep.check(err == nil && sameJSON(res, want), "cold run seed %d: err %v or in-process Execute differs", r.Seed, err)
			return err
		}
		traced := func() error {
			capN := 0
			if captured == nil {
				capN = dramCaptureCap
			}
			res, lt, reqs, err := tracedExecute(r, capN)
			if err != nil {
				return err
			}
			if capN > 0 {
				captured = reqs
			}
			tracedNs += float64(lt.wallNs)
			rep.check(sameJSON(res, want), "traced cold run seed %d diverges from Execute", r.Seed)
			runs = append(runs, tracedRun{r, res, lt})
			return nil
		}
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	return reportEngine(rep, runs, captured, 100*(ratio(tracedNs, plainNs)-1))
}

// serviceSetup computes the hot set's results in process, boots a cluster
// and prepopulates it through member 0, checking each answer.
func serviceSetup(ctx context.Context, dir string, rep *report, hot []uc.Run, execute func(uc.Run) (uc.Result, error)) (*cluster, []string, error) {
	res, err := uc.ExecuteMany(uc.Plan{Points: hot, Jobs: runtime.NumCPU()})
	if err != nil {
		return nil, nil, err
	}
	want := make([]string, len(res))
	for i, r := range res {
		want[i] = mustJSON(r)
	}
	c, err := startCluster(dir, serviceMembers, execute)
	if err != nil {
		return nil, nil, err
	}
	cl := client.New(c.urls[0])
	for i, r := range hot {
		got, err := cl.Execute(ctx, r)
		if err != nil {
			c.stop()
			return nil, nil, fmt.Errorf("prepopulating: %w", err)
		}
		rep.check(mustJSON(got) == want[i], "prepopulated hot run %d diverges from Execute", i)
	}
	return c, want, nil
}

func runService(opt options) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	base := opt.seed % 1_000_000
	hot := make([]uc.Run, hotRuns)
	for i := range hot {
		hot[i] = serviceRun(i, base*1000+1+uint64(i))
	}
	var execute func(uc.Run) (uc.Result, error)
	execs := &execLog{ms: map[uint64]float64{}}
	if opt.trace {
		execute = execs.execute
	}
	var (
		c      *cluster
		want   []string
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		settle()
		t := time.Now()
		var err error
		c, want, err = serviceSetup(ctx, filepath.Join(opt.work, fmt.Sprintf("cluster-%d", i)), rep, hot, execute)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer c.stop()

	var retries atomic.Int64
	reader, writer := client.New(c.urls[0]), client.New(c.urls[0])
	for _, cl := range []*client.Client{reader, writer} {
		cl.OnRetry = func(int, time.Duration, error) { retries.Add(1) }
	}
	order := rand.New(rand.NewPCG(opt.seed, 0x5eed)).Perm(len(hot))
	var before []map[string]float64
	if opt.trace {
		var err error
		if before, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}

	settle()
	origin := time.Now()
	deadline := origin.Add(opt.seconds)
	var (
		wg         sync.WaitGroup
		readMs     []float64
		readStart  []float64
		readBad    []string
		readFailed int
		readWall   time.Duration
		cold       []coldOp
		coldStart  []float64
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			k := order[i%len(order)]
			t := time.Now()
			res, err := reader.Execute(ctx, hot[k])
			readMs = append(readMs, float64(time.Since(t).Nanoseconds())/1e6)
			readStart = append(readStart, float64(t.Sub(origin).Microseconds())/1e3)
			if err != nil || mustJSON(res) != want[k] {
				readFailed++
				if len(readBad) < 5 {
					readBad = append(readBad, fmt.Sprintf("read of hot run %d: err %v or result differs", k, err))
				}
			}
		}
		readWall = time.Since(origin)
	}()
	go func() {
		defer wg.Done()
		coldBase := uint64(1)<<40 | base<<20
		for i := 0; time.Now().Before(deadline); i++ {
			r := serviceRun(i, coldBase+uint64(i))
			t := time.Now()
			res, err := writer.Execute(ctx, r)
			if err == nil && (res.Run.Seed != r.Seed || res.Run.Design != r.Design || res.UIPC <= 0) {
				err = fmt.Errorf("result does not answer the submitted run")
			}
			cold = append(cold, coldOp{run: r, res: res, err: err, ms: float64(time.Since(t).Nanoseconds()) / 1e6})
			coldStart = append(coldStart, float64(t.Sub(origin).Microseconds())/1e3)
		}
	}()
	wg.Wait()

	var after []map[string]float64
	if opt.trace {
		var err error
		if after, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}

	// Reader tally, then the cold runs re-executed in process.
	rep.attempted += len(readMs)
	rep.failed += readFailed
	rep.failures = append(rep.failures, readBad...)
	points := make([]uc.Run, len(cold))
	for i, op := range cold {
		points[i] = op.run
	}
	again, err := uc.ExecuteMany(uc.Plan{Points: points, Jobs: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	var coldMs []float64
	var coldEvents float64
	for i, op := range cold {
		coldMs = append(coldMs, op.ms)
		coldEvents += replayEvents(again[i])
		rep.check(op.err == nil && mustJSON(op.res) == mustJSON(again[i]), "cold run seed %d: err %v or result differs from Execute", op.run.Seed, op.err)
	}
	rep.detail["reads"] = len(readMs)
	rep.detail["cold_runs"] = len(cold)
	rep.detail["setup_s"] = setups
	rep.detail["read_wall_s"] = readWall.Seconds()

	if !opt.trace {
		readSecs := make([]float64, len(readMs))
		var coldSecs float64
		for i, ms := range readMs {
			readSecs[i] = ms / 1e3
		}
		for _, ms := range coldMs {
			coldSecs += ms / 1e3
		}
		rep.set("setup_s", "s", median(setups))
		rep.set("events_per_s", "1/s", ratio(coldEvents, coldSecs))
		rep.reportRequests(readSecs)
		if p99, ok := percentile(readMs, 99); ok {
			rep.set("latency_p99_ms", "ms", p99)
		} else {
			rep.detail["latency_p99_ms"] = fmt.Sprintf("not reported: %d samples leave fewer than %d beyond p99", len(readMs), minTail)
		}
		rep.set("cold_latency_p50_ms", "ms", median(coldMs))
		return rep, nil
	}
	if err := coldLedger(rep, again); err != nil {
		return nil, err
	}

	for i, ms := range readMs {
		rep.spans = append(rep.spans, span{Name: "read", StartMs: readStart[i], DurMs: ms})
	}
	for i, op := range cold {
		rep.spans = append(rep.spans, span{
			Name: "cold", StartMs: coldStart[i], DurMs: op.ms,
			Attrs:    map[string]string{"workload": op.run.Workload, "design": string(op.run.Design)},
			Children: map[string]float64{"execute": execs.ms[op.run.Seed]},
		})
	}
	submitted0 := after[0]["unisonserved_jobs_submitted_total"] - before[0]["unisonserved_jobs_submitted_total"]
	rep.set("serve.http_mean_ms", "ms", 1e3*meanDelta(before, after, "unisonserved_http_request_seconds", `route="/v1/runs"`))
	rep.set("serve.cache_hit_ratio", "ratio", ratio(counterDelta(before, after, "unisonserved_cache_hits_total"), counterDelta(before, after, "unisonserved_jobs_submitted_total")))
	rep.set("serve.proxied_frac", "ratio", ratio(counterDelta(before, after, "unisonserved_proxied_total"), submitted0))
	rep.set("cluster.peer_rtt_mean_ms", "ms", 1e3*meanDelta(before, after, "unisonserved_peer_roundtrip_seconds", ""))
	rep.set("serve.queue_wait_mean_ms", "ms", 1e3*meanDelta(before, after, "unisonserved_queue_wait_seconds", ""))
	rep.set("serve.execute_mean_ms", "ms", 1e3*meanDelta(before, after, "unisonserved_execute_seconds", ""))
	rep.set("store.write_mean_us", "us", 1e6*meanDelta(before, after, "unisonserved_store_write_seconds", ""))
	rep.set("client.retries", "count", float64(retries.Load()))
	hotRes := make([]uc.Result, len(hot))
	for i := range hot {
		if err := json.Unmarshal([]byte(want[i]), &hotRes[i]); err != nil {
			return nil, err
		}
	}
	rep.set("serve.runkey_ns", "ns", nsPerCall(20_000, func(i int) { _, _ = uc.RunKey(hot[i%len(hot)]) }))
	rep.set("serve.encode_result_us", "us", nsPerCall(5_000, func(i int) { _, _ = json.Marshal(hotRes[i%len(hotRes)]) })/1e3)
	return rep, nil
}
