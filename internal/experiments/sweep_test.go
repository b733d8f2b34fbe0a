package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/workload"
)

// testLatticeSpec is the differential battery's lattice: three set counts
// around the paper LLC crossed with every associativity up to the LLC's,
// plus tree-PLRU at the LLC's own shape and one smaller shape.
func testLatticeSpec() LatticeSpec {
	return LatticeSpec{
		MinSets: 1024,
		MaxSets: 4096,
		MaxWays: 16,
		PLRU: []stackdist.Geometry{
			{Sets: 4096, Ways: 16},
			{Sets: 2048, Ways: 8},
		},
	}
}

// directSweepCell recomputes one lattice point's cell the slow way: a fresh
// per-geometry cache.ReplayStream per phase, aggregated with exactly the
// expressions onePassCells uses. The one-pass engine must match this
// bit-for-bit — same MPKI doubles, same counters.
func directSweepCell(l *Lab, p stackdist.Point, w workload.Workload) GridCell {
	cell := GridCell{Workload: w.Name, Policy: p.Label()}
	mpkis := make([]float64, len(w.Phases))
	hitrs := make([]float64, len(w.Phases))
	wts := make([]float64, len(w.Phases))
	for pi, ph := range w.Phases {
		st := l.Streams(w)[pi]
		cfg := cache.Config{
			Name:       p.Label(),
			SizeBytes:  p.Sets * p.Ways * l.Cfg.BlockBytes,
			Ways:       p.Ways,
			BlockBytes: l.Cfg.BlockBytes,
		}
		var pol cache.Policy
		if p.Policy == stackdist.PolicyPLRU {
			pol = policy.NewPLRU(p.Sets, p.Ways)
		} else {
			pol = policy.NewTrueLRU(p.Sets, p.Ways)
		}
		rs := cache.ReplayStream(st.Records, cfg, pol, l.warm(len(st.Records)))
		mpkis[pi] = stats.MPKI(rs.Misses, rs.Instructions)
		acc := rs.Accesses
		if acc < 1 {
			acc = 1
		}
		hitrs[pi] = 100 * float64(rs.Hits) / float64(acc)
		wts[pi] = ph.Weight
		cell.Misses += rs.Misses
		cell.Accesses += rs.Accesses
	}
	cell.MPKI = stats.WeightedMean(mpkis, wts)
	cell.HitPct = stats.WeightedMean(hitrs, wts)
	return cell
}

// TestSweepGridDifferentialReplay is the lattice acceptance criterion: every
// one-pass cell must be bit-identical to a fresh per-geometry replay, at 1
// worker and at 8, with both worker counts agreeing exactly. Direct-mapped
// (ways=1) lattice points have no policy.NewTrueLRU partner — the registry
// requires ways >= 2 — so they are pinned against an independent naive model
// in the stackdist package tests instead and skipped here. Under -short a
// strided subset of LRU points is checked (the full lattice runs in the CI
// race job).
func TestSweepGridDifferentialReplay(t *testing.T) {
	base := NewLab(Smoke)
	spec := testLatticeSpec()
	wls := base.Suite()[:2]
	stride := 1
	if testing.Short() {
		wls = wls[:1]
		stride = 3
	}
	pts := spec.Options(1, 0).Lattice()
	points := spec.Points()

	// The slow side, computed once over the base lab's shared streams.
	want := make(map[string]GridCell)
	for _, w := range wls {
		for pi, p := range pts {
			if p.Policy == stackdist.PolicyLRU && (p.Ways < 2 || pi%stride != 0) {
				continue
			}
			want[w.Name+"|"+p.Label()] = directSweepCell(base, p, w)
		}
	}

	var prev []GridCell
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// A fresh full-fidelity view: shared streams, cold sweep memos, so
			// each worker count exercises its own one-pass computation.
			lab := base.WithSampling(0).SetWorkers(workers)
			cells, err := lab.SweepGrid(context.Background(), spec, wls, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != len(wls)*points {
				t.Fatalf("got %d cells, want %d", len(cells), len(wls)*points)
			}
			for wi, w := range wls {
				for pi, p := range pts {
					got := cells[wi*points+pi]
					if got.Workload != w.Name || got.Policy != p.Label() {
						t.Fatalf("cell[%d,%d] labeled %s/%s, want %s/%s",
							wi, pi, got.Workload, got.Policy, w.Name, p.Label())
					}
					ref, ok := want[w.Name+"|"+p.Label()]
					if !ok {
						continue
					}
					if got != ref {
						t.Errorf("%s/%s: one-pass %+v, direct replay %+v", w.Name, p.Label(), got, ref)
					}
				}
			}
			if prev != nil {
				for i := range cells {
					if cells[i] != prev[i] {
						t.Errorf("cell %d differs across worker counts: %+v vs %+v", i, cells[i], prev[i])
					}
				}
			}
			prev = cells
		})
	}
}

// TestSweepGridMatchesGridCell pins the bridge between the two engines: the
// lattice point at the lab's own geometry must reproduce the classic grid
// path's cell for the matching registry policy, bit-for-bit (the lattice
// carries no timing model, so IPC is excluded).
func TestSweepGridMatchesGridCell(t *testing.T) {
	lab := NewLab(Smoke)
	w := lab.Suite()[0]
	spec := testLatticeSpec()
	cells, err := lab.SweepGrid(context.Background(), spec, []workload.Workload{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	find := func(label string) GridCell {
		for i, l := range spec.Labels() {
			if l == label {
				return cells[i]
			}
		}
		t.Fatalf("no lattice cell labeled %q", label)
		return GridCell{}
	}
	gridCells, err := lab.Grid(context.Background(), []Spec{SpecLRU, SpecPLRU}, []workload.Workload{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, ways := lab.Cfg.Sets(), lab.Cfg.Ways
	for i, label := range []string{
		fmt.Sprintf("lru@%dx%d", sets, ways),
		fmt.Sprintf("plru@%dx%d", sets, ways),
	} {
		lat, grid := find(label), gridCells[i]
		if lat.MPKI != grid.MPKI || lat.HitPct != grid.HitPct ||
			lat.Misses != grid.Misses || lat.Accesses != grid.Accesses {
			t.Errorf("%s: lattice cell %+v != grid cell %+v", label, lat, grid)
		}
		if grid.IPC == 0 {
			t.Errorf("%s: grid cell carries no IPC (timing model missing?)", label)
		}
		if lat.IPC != 0 {
			t.Errorf("%s: lattice cell has IPC %v, want 0 (no timing model)", label, lat.IPC)
		}
	}
}

// TestSweepInclusionMonotonicity re-checks Mattson's inclusion property on
// the one-pass path, at the cell level: at a fixed set count, growing the
// associativity can only add hits, so misses never increase with ways.
func TestSweepInclusionMonotonicity(t *testing.T) {
	lab := NewLab(Smoke)
	spec := testLatticeSpec()
	pts := spec.Options(1, 0).Lattice()
	for _, w := range lab.Suite()[:3] {
		cells, err := lab.SweepGrid(context.Background(), spec, []workload.Workload{w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := map[int]GridCell{} // set count -> previous (smaller-ways) cell
		for pi, p := range pts {
			if p.Policy != stackdist.PolicyLRU {
				continue
			}
			c := cells[pi]
			if last, ok := prev[p.Sets]; ok {
				if c.Misses > last.Misses {
					t.Errorf("%s sets=%d: misses grew from %d (w=%d) to %d (w=%d)",
						w.Name, p.Sets, last.Misses, p.Ways-1, c.Misses, p.Ways)
				}
				if c.MPKI > last.MPKI {
					t.Errorf("%s sets=%d: MPKI grew from %v to %v at w=%d",
						w.Name, p.Sets, last.MPKI, c.MPKI, p.Ways)
				}
			}
			prev[p.Sets] = c
		}
	}
}

// TestSweepBeladyDominance re-checks the optimality bound against the
// one-pass path: Belady MIN at the lab geometry can never miss more than the
// one-pass LRU cell at that same geometry.
func TestSweepBeladyDominance(t *testing.T) {
	lab := NewLab(Smoke)
	spec := testLatticeSpec()
	label := fmt.Sprintf("lru@%dx%d", lab.Cfg.Sets(), lab.Cfg.Ways)
	li := -1
	for i, l := range spec.Labels() {
		if l == label {
			li = i
		}
	}
	if li < 0 {
		t.Fatalf("lattice has no point %q", label)
	}
	for _, w := range lab.Suite()[:3] {
		cells, err := lab.SweepGrid(context.Background(), spec, []workload.Workload{w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var optMisses uint64
		for pi := range w.Phases {
			optMisses += lab.optimalRun(w, pi).Misses
		}
		if lru := cells[li]; optMisses > lru.Misses {
			t.Errorf("%s: Belady MIN missed %d > one-pass LRU %d at %s",
				w.Name, optMisses, lru.Misses, label)
		}
	}
}

// TestLatticeSpecValidate pins the up-front rejection of impossible sweep
// ranges: every failure must wrap cache.ErrBadGeometry (the usage exit code
// on the CLI, HTTP 400 through serve), and SweepGrid must refuse before
// touching any stream.
func TestLatticeSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec LatticeSpec
		ok   bool
	}{
		{"default", DefaultLatticeSpec(cache.L3Config), true},
		{"no plru", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 4}, true},
		{"min above max", LatticeSpec{MinSets: 256, MaxSets: 128, MaxWays: 4}, false},
		{"sets not power of two", LatticeSpec{MinSets: 96, MaxSets: 128, MaxWays: 4}, false},
		{"zero ways", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 0}, false},
		{"ways beyond lattice cap", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 1024}, false},
		{"plru ways not power of two", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 4,
			PLRU: []stackdist.Geometry{{Sets: 64, Ways: 3}}}, false},
		{"plru ways beyond tree capacity", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 4,
			PLRU: []stackdist.Geometry{{Sets: 64, Ways: 128}}}, false},
		{"plru sets not power of two", LatticeSpec{MinSets: 64, MaxSets: 128, MaxWays: 4,
			PLRU: []stackdist.Geometry{{Sets: 100, Ways: 4}}}, false},
	}
	lab := NewLab(Smoke)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(lab.Cfg.BlockBytes)
			if tc.ok {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if !errors.Is(err, cache.ErrBadGeometry) {
				t.Fatalf("Validate: error %v, want cache.ErrBadGeometry", err)
			}
			// SweepGrid must refuse identically, before any stream build or
			// replay.
			if _, err := lab.SweepGrid(context.Background(), tc.spec, lab.Suite()[:1], nil); !errors.Is(err, cache.ErrBadGeometry) {
				t.Errorf("SweepGrid: error %v, want cache.ErrBadGeometry", err)
			}
		})
	}
}

// TestLatticeReportRenders sanity-checks the report path: one table per
// workload with a row per set count, plus one line per tree-PLRU geometry.
func TestLatticeReportRenders(t *testing.T) {
	lab := NewLab(Smoke)
	spec := testLatticeSpec()
	out, err := lab.LatticeReport(context.Background(), spec, lab.Suite()[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lru s=1024", "lru s=2048", "lru s=4096", "plru@4096x16", "plru@2048x8", "w16"} {
		if !strings.Contains(out, want) {
			t.Errorf("lattice report missing %q:\n%s", want, out)
		}
	}
}
