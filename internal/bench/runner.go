package bench

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gamma/internal/sim"
)

// Report is the outcome of one experiment in a suite run.
type Report struct {
	ID     string
	Title  string
	Table  *Table
	Wall   time.Duration
	Events int64 // simulated events executed across every machine built
	// Setup is the cumulative machine-build wall time (image builds,
	// restores, database loads) across the experiment's data points. Points
	// can run in parallel, so Setup may exceed Wall.
	Setup time.Duration
	// ImageHits / ImageMisses count machine-image cache lookups: a miss
	// built and snapshotted the database, a hit restored it copy-on-write.
	ImageHits   int64
	ImageMisses int64
	// Windows aggregates the partitioned kernel's EOT window-scheduler
	// counters across every simulation the experiment ran; all zero when
	// every simulation ran on one worker.
	Windows sim.WindowStats
}

// EventsPerSec returns the simulated-event throughput of the run.
func (r Report) EventsPerSec() float64 {
	s := r.Wall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Events) / s
}

// QueryWall is the experiment's wall time net of setup, clamped at zero
// (parallel points overlap setup with queries).
func (r Report) QueryWall() time.Duration {
	q := r.Wall - r.Setup
	if q < 0 {
		q = 0
	}
	return q
}

// RunSuite runs the experiments, fanning them — and, through parMap, their
// independent data points — across at most workers goroutines. Reports come
// back in the order the experiments were given, and every Table is identical
// to a serial run: each data point is its own single-threaded simulation
// with a fixed seed, so scheduling cannot reach the results. workers <= 1
// runs everything on the calling goroutine.
func RunSuite(exps []Experiment, o Options, workers int) []Report {
	if workers > 1 {
		o.Workers = workers
		o.sem = make(chan struct{}, workers)
	}
	if o.images == nil {
		// One machine-image cache serves the whole suite: experiments that
		// build identical databases (the figure pairs, the table sizes)
		// share images across experiment boundaries.
		o.images = newImageCache()
	}
	reports := make([]Report, len(exps))
	run := func(i int, e Experiment, oo Options) {
		var ev, su, ih, im atomic.Int64
		var wc sim.WindowCounters
		oo.events = &ev
		oo.setup = &su
		oo.imgHits = &ih
		oo.imgMisses = &im
		oo.windows = &wc
		start := time.Now()
		var tbl *Table
		// Label the experiment's goroutine (and every worker it spawns) so
		// CPU profiles break down per experiment — `gammabench -cpuprofile`
		// plus `go tool pprof -tags` attributes window-scheduler cost to the
		// experiment that paid it, which is the data the fusion policy's
		// thresholds were tuned from.
		pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
			tbl = e.Run(oo)
		})
		reports[i] = Report{ID: e.ID, Title: e.Title, Table: tbl,
			Wall: time.Since(start), Events: ev.Load(),
			Setup: time.Duration(su.Load()), ImageHits: ih.Load(), ImageMisses: im.Load(),
			Windows: wc.Stats()}
	}
	if o.sem == nil {
		for i, e := range exps {
			run(i, e, o)
		}
		return reports
	}
	var wg sync.WaitGroup
	for i, e := range exps {
		// Blocking acquire: experiments enter in order as slots free up.
		// Each in-flight experiment holds one slot; its inner parMap calls
		// borrow further free slots without ever waiting for one.
		o.sem <- struct{}{}
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			defer func() { <-o.sem }()
			run(i, e, o)
		}(i, e)
	}
	wg.Wait()
	return reports
}

// parMap evaluates fn(0) .. fn(n-1) and returns the results in index order.
// Under a parallel Options it fans calls across free worker slots and runs
// inline when none is free — a caller already holding a slot (RunSuite's
// experiment goroutine) therefore can never deadlock, and a serial Options
// degenerates to a plain loop. Each fn must build its own simulator; points
// share nothing, which is what makes the fan-out order-independent.
func parMap[T any](o Options, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if o.sem == nil || n <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	for i := range out {
		select {
		case o.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-o.sem }()
				out[i] = fn(i)
			}(i)
		default:
			out[i] = fn(i)
		}
	}
	wg.Wait()
	return out
}
