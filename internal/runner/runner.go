// Package runner is the experiment sweep engine: it fans a plan's points
// out over a bounded worker pool, memoizes points that share a key so
// redundant work (notably the no-DRAM-cache baseline every speedup divides
// by) executes exactly once, and hands results back in plan order so
// concurrent execution is indistinguishable from a serial loop.
//
// The engine is deliberately generic — it knows nothing about simulations.
// Determinism is the caller's contract: fn must be a pure function of its
// point (every simulation Run is, for a fixed Seed), and then the returned
// slice is bit-identical no matter the worker count or scheduling order.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Options configures one sweep execution.
type Options struct {
	// Jobs is the worker-pool size. Zero or negative selects
	// runtime.GOMAXPROCS(0) — one worker per schedulable CPU.
	Jobs int
	// Progress, when non-nil, receives a carriage-return-prefixed status
	// line after every completed job and a trailing newline at the end
	// (pass os.Stderr to get a live "runner: 12/84 jobs" ticker).
	Progress io.Writer
}

func (o Options) jobs() int {
	if o.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Jobs
}

// Map runs fn over every point concurrently and returns the results in
// point order. If any point fails, Map returns the error of the failing
// point with the smallest index among those that ran, and stops handing
// out further work (in-flight points finish).
func Map[T, R any](points []T, fn func(T) (R, error), opt Options) ([]R, error) {
	jobs := make([]job[T], len(points))
	for i, p := range points {
		jobs[i] = job[T]{point: p, out: []int{i}}
	}
	return execute(jobs, len(points), fn, opt)
}

// MapKeyed is Map with memoization: points whose keys compare equal
// execute fn exactly once — on the first point carrying the key — and
// every such point receives the shared result. Result order is still
// point order.
func MapKeyed[T any, K comparable, R any](points []T, key func(T) K, fn func(T) (R, error), opt Options) ([]R, error) {
	index := make(map[K]int)
	var jobs []job[T]
	for i, p := range points {
		k := key(p)
		j, ok := index[k]
		if !ok {
			j = len(jobs)
			index[k] = j
			jobs = append(jobs, job[T]{point: p})
		}
		jobs[j].out = append(jobs[j].out, i)
	}
	return execute(jobs, len(points), fn, opt)
}

// job is one unit of work and the point indices that share its result.
type job[T any] struct {
	point T
	out   []int
}

// execute drains the job list through the worker pool and scatters each
// job's result to the point indices that share it.
func execute[T, R any](jobs []job[T], points int, fn func(T) (R, error), opt Options) ([]R, error) {
	results := make([]R, points)
	perJob := make([]R, len(jobs))
	errs := make([]error, len(jobs))

	var (
		mu     sync.Mutex
		done   int
		failed bool
	)
	next := make(chan int)
	go func() {
		defer close(next)
		for j := range jobs {
			mu.Lock()
			bail := failed
			mu.Unlock()
			if bail {
				return
			}
			next <- j
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < opt.jobs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r, err := fn(jobs[j].point)
				mu.Lock()
				perJob[j], errs[j] = r, err
				if err != nil {
					failed = true
				}
				done++
				if opt.Progress != nil {
					fmt.Fprintf(opt.Progress, "\rrunner: %d/%d jobs", done, len(jobs))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if opt.Progress != nil {
		fmt.Fprintln(opt.Progress)
	}

	// Report the failure whose first point index is smallest, so the
	// error matches what a serial loop would have hit first.
	firstErr, firstIdx := error(nil), points
	for j, err := range errs {
		if err != nil && jobs[j].out[0] < firstIdx {
			firstErr, firstIdx = err, jobs[j].out[0]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for j := range jobs {
		for _, i := range jobs[j].out {
			results[i] = perJob[j]
		}
	}
	return results, nil
}
