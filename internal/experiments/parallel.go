package experiments

// The parallel evaluation engine: the paper's grid — ~14 policies x 29
// workloads x up to 3 phases — is embarrassingly parallel, because every
// (policy, workload, phase) cell builds a fresh policy instance and replays
// a deterministically seeded stream. Prefetch fans the cells out over a
// bounded worker pool and lets the Lab's memo absorb the results; the
// figure runners then read memoized values serially, so their output is
// bit-identical to a fully serial run regardless of worker count or cell
// completion order (the determinism test in parallel_test.go holds this
// invariant under the race detector).

import (
	"context"

	"gippr/internal/parallel"
	"gippr/internal/workload"
)

// Prefetch computes every (spec, workload, phase) cell over the full suite
// in parallel on l.Workers goroutines, one task per cell. With withOptimal,
// Belady MIN is also computed per (workload, phase). After it returns,
// every corresponding MPKI/CPI/Speedup/OptimalMPKI call is a memoized map
// lookup.
func (l *Lab) Prefetch(specs []Spec, withOptimal bool) {
	l.PrefetchWorkloads(specs, l.suite, withOptimal)
}

// PrefetchWorkloads is Prefetch restricted to a subset of workloads.
func (l *Lab) PrefetchWorkloads(specs []Spec, ws []workload.Workload, withOptimal bool) {
	// Cancellation via the lab context only stops precomputation; the
	// memoized getters behind the figure runners still compute missing
	// cells on demand, so dropping the error here never corrupts output.
	_ = l.PrefetchWorkloadsCtx(l.ctx, specs, ws, withOptimal)
}

// PrefetchWorkloadsCtx is PrefetchWorkloads with explicit cancellation:
// when ctx is cancelled, no new cell starts, in-flight cells drain to
// completion (their memoized results stay valid), and the error is
// ctx.Err().
func (l *Lab) PrefetchWorkloadsCtx(ctx context.Context, specs []Spec, ws []workload.Workload, withOptimal bool) error {
	// Build the LLC streams first, one task per workload. Doing this as its
	// own pass keeps the cell pass below from stacking every spec of one
	// workload behind that workload's stream build.
	if err := l.PrefetchStreamsCtx(ctx, ws); err != nil {
		return err
	}
	type task struct {
		spec    Spec
		w       workload.Workload
		phase   int
		optimal bool
	}
	var tasks []task
	for _, w := range ws {
		for p := range w.Phases {
			for _, s := range specs {
				tasks = append(tasks, task{spec: s, w: w, phase: p})
			}
			if withOptimal {
				tasks = append(tasks, task{w: w, phase: p, optimal: true})
			}
		}
	}
	return parallel.ForCtx(ctx, l.Workers, len(tasks), func(i int) {
		t := tasks[i]
		if t.optimal {
			l.optimalRun(t.w, t.phase)
		} else {
			l.phaseRun(t.spec, t.w, t.phase)
		}
	})
}

// PrefetchStreams builds the LLC-filtered streams of the given workloads in
// parallel (all of them when ws is nil).
func (l *Lab) PrefetchStreams(ws []workload.Workload) {
	_ = l.PrefetchStreamsCtx(l.ctx, ws) // see PrefetchWorkloads on the dropped error
}

// PrefetchStreamsCtx is PrefetchStreams with explicit cancellation; a
// stream build in flight at cancellation time runs to completion and is
// memoized as usual.
func (l *Lab) PrefetchStreamsCtx(ctx context.Context, ws []workload.Workload) error {
	if ws == nil {
		ws = l.suite
	}
	return parallel.ForCtx(ctx, l.Workers, len(ws), func(i int) { l.Streams(ws[i]) })
}
