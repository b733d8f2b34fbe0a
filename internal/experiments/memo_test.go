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

// TestConcurrentGridsReplayOnce: two overlapping Grid batches must replay
// each shared key once. The first build of the counted spec waits for a
// second build (or 300 ms), so both grids are inside their batches at the
// same time; a batch that skipped only already-settled keys would replay
// the same phase twice.
func TestConcurrentGridsReplayOnce(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(1)
	w := lab.Suite()[0]
	lab.Streams(w) // warm: only replays race below
	var built atomic.Int32
	second := make(chan struct{})
	spec := Spec{Key: "counted", Label: "counted", New: func(name string, sets, ways int) cache.Policy {
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
	cells := make([][]GridCell, 2)
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			cells[i], err = lab.Grid(context.Background(), []Spec{spec}, []workload.Workload{w}, nil)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if cells[0][0] != cells[1][0] {
		t.Fatalf("concurrent grids disagree: %+v vs %+v", cells[0][0], cells[1][0])
	}
	if got, want := built.Load(), int32(len(w.Phases)); got != want {
		t.Fatalf("policy built %d times for %d phases: overlapping batches replayed a key twice", got, want)
	}
}
