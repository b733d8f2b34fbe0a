package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
)

// TestParallelGridBitIdenticalToSerial is the determinism contract of the
// parallel evaluation engine: a grid settled with 8 workers must produce
// bit-identical MPKI and CPI to a lab evaluated serially, including the
// Belady MIN cells. Run with -race to also prove the fan-out is data-race
// free (the Makefile's race target does).
func TestParallelGridBitIdenticalToSerial(t *testing.T) {
	specs := []Spec{SpecLRU, SpecPLRU, SpecDRRIP}
	serial := NewLab(Smoke).SetWorkers(1)
	par := NewLab(Smoke).SetWorkers(8)
	ws := par.Suite()[:4]
	if err := par.settle(context.Background(), specs, ws, true, nil); err != nil {
		t.Fatal(err)
	}

	for _, w := range ws {
		for _, s := range specs {
			if a, b := serial.MPKI(s, w), par.MPKI(s, w); a != b {
				t.Fatalf("%s/%s MPKI: serial %v != parallel %v", s.Key, w.Name, a, b)
			}
			if a, b := serial.CPI(s, w), par.CPI(s, w); a != b {
				t.Fatalf("%s/%s CPI: serial %v != parallel %v", s.Key, w.Name, a, b)
			}
		}
		if a, b := serial.OptimalMPKI(w), par.OptimalMPKI(w); a != b {
			t.Fatalf("%s optimal MPKI: serial %v != parallel %v", w.Name, a, b)
		}
	}
}

// TestStreamsSingleflightUnderConcurrency: concurrent Streams calls for the
// same workload must coalesce into one build and hand every caller the same
// backing slice.
func TestStreamsSingleflightUnderConcurrency(t *testing.T) {
	lab := smokeLab()
	w := lab.Suite()[0]
	const goroutines = 8
	var wg sync.WaitGroup
	first := make([]interface{}, goroutines) // identity of each caller's backing array
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := lab.Streams(w)
			first[i] = &s[0].Records[0]
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if first[i] != first[0] {
			t.Fatal("concurrent Streams calls returned different backing arrays (stream built twice)")
		}
	}
}

// TestPhaseRunSingleflightUnderConcurrency: a concurrent miss on the same
// (spec, workload, phase) key must run the replay exactly once — the policy
// constructor is the observable proxy for a replay.
func TestPhaseRunSingleflightUnderConcurrency(t *testing.T) {
	lab := smokeLab()
	w := lab.Suite()[1]
	var built atomic.Int32
	spec := Spec{Key: "counted", Label: "counted", New: func(_ string, sets, ways int) cache.Policy {
		built.Add(1)
		return policy.NewTrueLRU(sets, ways)
	}}
	const goroutines = 6
	res := make([]float64, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res[i] = lab.MPKI(spec, w)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if res[i] != res[0] {
			t.Fatalf("concurrent MPKI values differ: %v vs %v", res[i], res[0])
		}
	}
	if got, want := built.Load(), int32(len(w.Phases)); got != want {
		t.Fatalf("policy built %d times for %d phases: memoization raced", got, want)
	}
}

// TestStreamsCompactedToFootprint: the capture buffer is reserved at the
// record budget but must not stay pinned at it — the memoized stream should
// hold roughly its real footprint.
func TestStreamsCompactedToFootprint(t *testing.T) {
	lab := smokeLab()
	for _, w := range lab.Suite()[:3] {
		for pi, st := range lab.Streams(w) {
			if len(st.Records) == 0 {
				continue
			}
			if cap(st.Records) > len(st.Records)+len(st.Records)/4+1 {
				t.Fatalf("%s phase %d: stream cap %d for len %d — reservation not compacted",
					w.Name, pi, cap(st.Records), len(st.Records))
			}
		}
	}
}

// TestPrefetchCtxCancellationIsCorrectnessNeutral: cancelling the cell
// schedule (settle) stops precomputation but must never change what the
// memoized getters return — a cell missed by the truncated schedule is
// computed on demand with identical results.
func TestPrefetchCtxCancellationIsCorrectnessNeutral(t *testing.T) {
	specs := []Spec{SpecLRU, SpecPLRU}
	ref := NewLab(Smoke).SetWorkers(2)
	ws := ref.Suite()[:2]
	if err := ref.settle(context.Background(), specs, ws, false, nil); err != nil {
		t.Fatal(err)
	}

	cancelled := NewLab(Smoke).SetWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cancelled.settle(ctx, specs, ws, false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled settle err = %v", err)
	}
	for _, w := range ws {
		for _, s := range specs {
			if a, b := ref.MPKI(s, w), cancelled.MPKI(s, w); a != b {
				t.Fatalf("%s/%s MPKI after cancelled settle: %v != %v", s.Key, w.Name, a, b)
			}
		}
	}
}

// TestGAEnvCtxCancelled: environment construction must report cancellation
// instead of returning a half-built environment.
func TestGAEnvCtxCancelled(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if env, err := lab.GAEnvCtx(ctx); env != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("GAEnvCtx = (%v, %v), want (nil, context.Canceled)", env, err)
	}
}
