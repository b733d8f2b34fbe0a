package experiments

// The parallel evaluation engine: the paper's grid — ~14 policies x 29
// workloads x up to 3 phases — is embarrassingly parallel, because every
// (policy, workload, phase) cell builds a fresh policy instance and replays
// a deterministically seeded stream. Prefetch and Grid fan the cells out
// over a bounded worker pool (settle) and let the Lab's memo absorb the
// results; the figure runners then read memoized values serially, so their
// output is bit-identical to a fully serial run regardless of worker count
// or cell completion order (the determinism test in parallel_test.go holds
// this invariant under the race detector).

import (
	"context"
	"sync/atomic"

	"gippr/internal/parallel"
	"gippr/internal/workload"
)

// Prefetch computes every (spec, workload, phase) cell over the full suite
// in parallel on l.Workers goroutines, one task per cell. With withOptimal,
// Belady MIN is also computed per (workload, phase). After it returns,
// every corresponding MPKI/CPI/Speedup/OptimalMPKI call is a memoized map
// lookup.
func (l *Lab) Prefetch(specs []Spec, withOptimal bool) {
	// Cancellation via the lab context only stops precomputation; the
	// memoized getters behind the figure runners still compute missing
	// cells on demand, so dropping the error here never corrupts output.
	_ = l.PrefetchWorkloadsCtx(l.ctx, specs, l.suite, withOptimal)
}

// PrefetchWorkloadsCtx is Prefetch restricted to a subset of workloads,
// with explicit cancellation: when ctx is cancelled, no new cell starts,
// in-flight cells drain to completion (their memoized results stay valid),
// and the error is ctx.Err().
func (l *Lab) PrefetchWorkloadsCtx(ctx context.Context, specs []Spec, ws []workload.Workload, withOptimal bool) error {
	return l.settle(ctx, specs, ws, withOptimal, nil)
}

// settle is the lab's one cell schedule, behind Prefetch and Grid. It
// builds the LLC streams first, one task per workload: as its own pass it
// keeps every worker from waiting on one workload's stream build. Then it
// settles every (spec, workload, phase) result, and with withOptimal every
// (workload, phase) Belady MIN, one task per cell. A countdown per
// workload calls done(wi), when non-nil, on the worker that settles the
// last cell of ws[wi], so done reads only settled cells. On cancellation no
// new cell starts, in-flight cells drain, done runs only for workloads
// whose every cell settled, and the error is ctx.Err().
func (l *Lab) settle(ctx context.Context, specs []Spec, ws []workload.Workload, withOptimal bool, done func(wi int)) error {
	if err := l.PrefetchStreamsCtx(ctx, ws); err != nil {
		return err
	}
	type task struct {
		spec    Spec
		wi      int
		phase   int
		optimal bool
	}
	var tasks []task
	left := make([]atomic.Int32, len(ws))
	for wi, w := range ws {
		first := len(tasks)
		for p := range w.Phases {
			for _, s := range specs {
				tasks = append(tasks, task{spec: s, wi: wi, phase: p})
			}
			if withOptimal {
				tasks = append(tasks, task{wi: wi, phase: p, optimal: true})
			}
		}
		left[wi].Store(int32(len(tasks) - first))
	}
	return parallel.ForCtx(ctx, l.Workers, len(tasks), func(i int) {
		t := tasks[i]
		if t.optimal {
			l.optimalRun(ws[t.wi], t.phase)
		} else {
			l.phaseRun(t.spec, ws[t.wi], t.phase)
		}
		if left[t.wi].Add(-1) == 0 && done != nil {
			done(t.wi)
		}
	})
}

// PrefetchStreams builds the LLC-filtered streams of the given workloads in
// parallel (all of them when ws is nil).
func (l *Lab) PrefetchStreams(ws []workload.Workload) {
	_ = l.PrefetchStreamsCtx(l.ctx, ws) // see Prefetch on the dropped error
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
