package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gippr/internal/cache"
	"gippr/internal/workload"
)

// TestMemoPanicLeavesKeyUnsettled: a computation that panics must leave its
// keys unsettled, so the next reader recomputes them. A memo that counted
// the panic as done would mix a zeroed phase into MPKI and hand Diff a
// settled (nil, nil) forever.
func TestMemoPanicLeavesKeyUnsettled(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(1)
	w := lab.Suite()[0]
	if len(w.Phases) < 2 {
		t.Fatalf("%s has %d phases; the test needs a panic in one of several", w.Name, len(w.Phases))
	}
	// panicsOnce is SpecLRU under a fresh key whose first build panics.
	panicsOnce := func(key string) Spec {
		var calls atomic.Int32
		return Spec{Key: key, Label: key, New: func(name string, sets, ways int) cache.Policy {
			if calls.Add(1) == 1 {
				panic("first build fails")
			}
			return SpecLRU.New(name, sets, ways)
		}}
	}
	recovered := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("the first build did not panic")
			}
		}()
		f()
	}

	spec := panicsOnce("lru-panics-once")
	recovered(func() { lab.MPKI(spec, w) })
	if got, want := lab.MPKI(spec, w), lab.MPKI(SpecLRU, w); got != want {
		t.Errorf("MPKI after a recovered panic = %v, want LRU's %v", got, want)
	}

	spec = panicsOnce("lru-panics-once-in-diff")
	recovered(func() { _, _ = lab.Diff(SpecLRU, spec, w) })
	if e, err := lab.Diff(SpecLRU, spec, w); e == nil || err != nil {
		t.Fatalf("Diff after a recovered panic = (%v, %v), want an explanation", e, err)
	}
}

// TestConcurrentReadersReplayOnce: two concurrent readers of one memoized
// replay must build it once per phase — two Grids of the counted spec,
// which share its results, and two Diffs with the counted spec as side A,
// which share its instrumented capture. The first build of the counted
// spec waits for a second build (or 300 ms), so both readers reach the
// computation while it is under way; a memo that let the second reader
// replay the key itself would build a phase twice.
func TestConcurrentReadersReplayOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(lab *Lab, counted Spec, w workload.Workload, i int) (any, error)
	}{
		{"grid", func(lab *Lab, counted Spec, w workload.Workload, _ int) (any, error) {
			cells, err := lab.Grid(context.Background(), []Spec{counted}, []workload.Workload{w}, nil)
			return cells[0], err
		}},
		{"diff", func(lab *Lab, counted Spec, w workload.Workload, i int) (any, error) {
			e, err := lab.Diff(counted, []Spec{SpecLRU, SpecPLRU}[i], w)
			if err != nil {
				return nil, err
			}
			return e.MPKIA, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lab := NewLab(Smoke).SetWorkers(1)
			w := lab.Suite()[0]
			lab.Streams(w) // warm: only replays race below
			var built atomic.Int32
			second := make(chan struct{})
			counted := Spec{Key: "counted", Label: "counted", New: func(name string, sets, ways int) cache.Policy {
				if built.Add(1) == 2 {
					close(second)
				}
				select {
				case <-second:
				case <-time.After(300 * time.Millisecond):
				}
				return SpecLRU.New(name, sets, ways)
			}}
			var wg sync.WaitGroup
			got := make([]any, 2)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					if got[i], err = tc.read(lab, counted, w, i); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			if got[0] != got[1] {
				t.Fatalf("concurrent readers disagree: %+v vs %+v", got[0], got[1])
			}
			if got, want := built.Load(), int32(len(w.Phases)); got != want {
				t.Fatalf("policy built %d times for %d phases: a key was replayed twice", got, want)
			}
		})
	}
}
