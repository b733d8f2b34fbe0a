package experiments

// The parallel evaluation engine: the paper's grid — ~14 policies x 29
// workloads x up to 3 phases — is embarrassingly parallel, because every
// (policy, workload, phase) cell builds a fresh policy instance and replays
// a deterministically seeded stream. Grid and the figure runners fan the
// cells out over a bounded worker pool (settle) and let the Lab's memo
// absorb the results; the figure runners then read memoized values
// serially, so their output is bit-identical to a fully serial run
// regardless of worker count or cell completion order (the determinism
// test in parallel_test.go holds this invariant under the race detector).

import (
	"context"
	"sync/atomic"

	"gippr/internal/parallel"
	"gippr/internal/workload"
)

// settle is the lab's one cell schedule, behind Grid and the figure
// runners. It builds the LLC streams first, one task per workload: as its
// own pass it keeps every worker from waiting on one workload's stream
// build. Then it settles every (spec, workload, phase) result, and with
// withOptimal every (workload, phase) Belady MIN, one task per cell. A
// countdown per workload calls done(wi), when non-nil, on the worker that
// settles the last cell of ws[wi], so done reads only settled cells. On
// cancellation no new cell starts, in-flight cells drain, done runs only
// for workloads whose every cell settled, and the error is ctx.Err(). The
// memo entries themselves are not cancellable, so a cancelled settle
// leaves only complete values behind, and a getter that misses computes
// its cell on demand.
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

// prefetch settles every (spec, workload, phase) cell over the full suite,
// and with withOptimal every Belady MIN, on l.Workers goroutines, so the
// figure runner that calls it then reads only warm memo entries. It runs
// to completion: a figure is all or nothing, and its caller checks for
// cancellation between figures.
func (l *Lab) prefetch(specs []Spec, withOptimal bool) {
	_ = l.settle(context.Background(), specs, l.suite, withOptimal, nil) // Background never cancels
}

// prefetchStreams builds the LLC streams of ws in parallel, running to
// completion like prefetch.
func (l *Lab) prefetchStreams(ws []workload.Workload) {
	_ = l.PrefetchStreamsCtx(context.Background(), ws) // Background never cancels
}

// PrefetchStreamsCtx builds the LLC-filtered streams of the given workloads
// in parallel on l.Workers goroutines (all of them when ws is nil). On
// cancellation no new build starts, a build in flight runs to completion
// and is memoized as usual, and the error is ctx.Err().
func (l *Lab) PrefetchStreamsCtx(ctx context.Context, ws []workload.Workload) error {
	if ws == nil {
		ws = l.suite
	}
	return parallel.ForCtx(ctx, l.Workers, len(ws), func(i int) { l.Streams(ws[i]) })
}
