package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"gippr/internal/workload"
)

// gridScale keeps grid tests fast: tiny phases, standard warm fraction.
var gridScale = CustomScale(4_000, 1.0/3)

func gridSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range []string{"lru", "plru"} {
		sp, err := SpecFromRegistry(name)
		if err != nil {
			t.Fatalf("SpecFromRegistry(%q): %v", name, err)
		}
		specs = append(specs, sp)
	}
	return specs
}

func gridWorkloads(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	wls := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		wls = append(wls, w)
	}
	return wls
}

// TestGridMatchesPointQueries pins the bit-identity contract: a Grid cell
// equals the aggregation of the same lab's memoized point queries, and two
// independent labs at the same scale produce byte-identical grids.
func TestGridMatchesPointQueries(t *testing.T) {
	specs := gridSpecs(t)
	wls := gridWorkloads(t, "mcf_like", "libquantum_like")

	lab := NewLab(gridScale)
	cells, err := lab.Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(cells) != len(wls)*len(specs) {
		t.Fatalf("got %d cells, want %d", len(cells), len(wls)*len(specs))
	}
	for wi, w := range wls {
		for si, sp := range specs {
			cell := cells[wi*len(specs)+si]
			if cell.Workload != w.Name || cell.Policy != sp.Label {
				t.Fatalf("cell[%d,%d] labeled (%s,%s), want (%s,%s)",
					wi, si, cell.Workload, cell.Policy, w.Name, sp.Label)
			}
			if want := lab.cellOf(sp, w); cell != want {
				t.Errorf("cell (%s,%s) = %+v, want memoized %+v", w.Name, sp.Label, cell, want)
			}
			if cell.Accesses == 0 || cell.MPKI <= 0 {
				t.Errorf("cell (%s,%s) looks empty: %+v", w.Name, sp.Label, cell)
			}
		}
	}

	// A fresh lab — same scale, no shared memo — must agree bit-for-bit,
	// and so must a repeat call on the first lab (pure memo reads).
	fresh, err := NewLab(gridScale).Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatalf("fresh Grid: %v", err)
	}
	if !reflect.DeepEqual(cells, fresh) {
		t.Error("independent labs disagree on grid cells")
	}
	again, err := lab.Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatalf("repeat Grid: %v", err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("repeat Grid call disagrees with first (memo reads must be identical)")
	}
}

// TestGridOnCell checks the streaming callback: every cell is delivered
// exactly once, concurrently-safely, and matches the returned slice.
func TestGridOnCell(t *testing.T) {
	specs := gridSpecs(t)
	wls := gridWorkloads(t, "mcf_like", "lbm_like")
	lab := NewLab(gridScale).SetWorkers(2)

	var mu sync.Mutex
	got := make(map[string]GridCell)
	cells, err := lab.Grid(context.Background(), specs, wls, func(c GridCell) {
		mu.Lock()
		defer mu.Unlock()
		key := c.Workload + "|" + c.Policy
		if _, dup := got[key]; dup {
			t.Errorf("cell %s delivered twice", key)
		}
		got[key] = c
	})
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(got) != len(cells) {
		t.Fatalf("onCell saw %d cells, want %d", len(got), len(cells))
	}
	for _, c := range cells {
		if d, ok := got[c.Workload+"|"+c.Policy]; !ok || d != c {
			t.Errorf("onCell cell %+v != returned %+v", d, c)
		}
	}
}

// TestGridCancellation: a pre-cancelled context stops the grid without
// running every workload and surfaces context.Canceled.
func TestGridCancellation(t *testing.T) {
	specs := gridSpecs(t)
	lab := NewLab(gridScale).SetWorkers(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lab.Grid(ctx, specs, lab.Suite(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Grid on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestGridCancelledMidRun: a context cancelled inside the first onCell, at
// two workers, stops the grid with context.Canceled. Each workload's cells
// are delivered all or none, every delivered cell equals a complete grid's,
// and the returned slice holds the delivered workloads' cells and zero
// values for the rest.
func TestGridCancelledMidRun(t *testing.T) {
	specs := gridSpecs(t)
	wls := gridWorkloads(t, "mcf_like", "lbm_like", "libquantum_like", "sphinx3_like")
	want, err := NewLab(gridScale).Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatalf("complete Grid: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	delivered := make(map[string]GridCell)
	cells, err := NewLab(gridScale).SetWorkers(2).Grid(ctx, specs, wls, func(c GridCell) {
		cancel()
		mu.Lock()
		defer mu.Unlock()
		delivered[c.Workload+"|"+c.Policy] = c
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Grid cancelled in onCell: err = %v, want context.Canceled", err)
	}
	var complete int
	for wi, w := range wls {
		var n int
		for si, sp := range specs {
			i := wi*len(specs) + si
			c, ok := delivered[w.Name+"|"+sp.Label]
			if !ok {
				if cells[i] != (GridCell{}) {
					t.Errorf("undelivered cell (%s,%s) returned as %+v, want zero", w.Name, sp.Label, cells[i])
				}
				continue
			}
			n++
			if c != want[i] || cells[i] != want[i] {
				t.Errorf("cell (%s,%s) delivered %+v, returned %+v, want %+v", w.Name, sp.Label, c, cells[i], want[i])
			}
		}
		if n != 0 && n != len(specs) {
			t.Errorf("%s: %d of %d cells delivered", w.Name, n, len(specs))
		}
		if n == len(specs) {
			complete++
		}
	}
	if complete == 0 || complete == len(wls) {
		t.Fatalf("%d of %d workloads delivered: the cancellation did not cut the grid", complete, len(wls))
	}
}
