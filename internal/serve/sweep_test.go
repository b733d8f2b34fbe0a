package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"gippr/internal/experiments"
	"gippr/internal/stackdist"
)

// TestSweepSubmissionValidation pins the 400 surface of sweep jobs: every
// impossible geometry range — including tree-PLRU ways beyond a PseudoLRU
// set's capacity, the shape that used to panic mid-replay — and every
// field that cannot compose with the one-pass engine must be rejected at
// submission, before any stream is built.
func TestSweepSubmissionValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sweep := func(minSets, maxSets, maxWays int, plru ...stackdist.Geometry) *experiments.LatticeSpec {
		return &experiments.LatticeSpec{MinSets: minSets, MaxSets: maxSets, MaxWays: maxWays, PLRU: plru}
	}
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"sets not power of two", JobRequest{Workloads: []string{"mcf_like"}, Sweep: sweep(3, 4096, 4)}},
		{"min above max", JobRequest{Workloads: []string{"mcf_like"}, Sweep: sweep(4096, 1024, 4)}},
		{"zero ways", JobRequest{Workloads: []string{"mcf_like"}, Sweep: sweep(1024, 4096, 0)}},
		{"plru ways not power of two", JobRequest{Workloads: []string{"mcf_like"},
			Sweep: sweep(1024, 4096, 4, stackdist.Geometry{Sets: 4096, Ways: 3})}},
		{"plru ways beyond tree capacity", JobRequest{Workloads: []string{"mcf_like"},
			Sweep: sweep(1024, 4096, 4, stackdist.Geometry{Sets: 4096, Ways: 128})}},
		// Without the slot bound each resolves, and running it throws
		// out-of-memory, which no recover catches: the daemon dies.
		{"lattice beyond slot bound", JobRequest{Workloads: []string{"mcf_like"}, Sweep: sweep(1<<33, 1<<33, 1)}},
		{"plru geometry beyond slot bound", JobRequest{Workloads: []string{"mcf_like"},
			Sweep: sweep(1024, 4096, 4, stackdist.Geometry{Sets: 1 << 33, Ways: 16})}},
		{"sweep with policies", JobRequest{Workloads: []string{"mcf_like"},
			Policies: []string{"lru"}, Sweep: sweep(1024, 4096, 4)}},
		{"sweep with ipv", JobRequest{Workloads: []string{"mcf_like"},
			IPV: "0,0,1,0,3,0,1,2,0,4,0,1,2,3,0,5,0", Sweep: sweep(1024, 4096, 4)}},
		{"sweep with sample", JobRequest{Workloads: []string{"mcf_like"},
			Sample: 2, Sweep: sweep(1024, 4096, 4)}},
		{"sweep with exact", JobRequest{Workloads: []string{"mcf_like"},
			Exact: true, Sweep: sweep(1024, 4096, 4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postJob(t, ts, tc.req)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submit: status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestServedSweepBitIdentical is the sweep acceptance criterion: a served
// sweep job's manifest must be bit-identical to what the Lab's one-pass
// engine computes directly, and the lattice point at the daemon's own
// geometry must be bit-identical to the classic grid engine's LRU cell for
// the same workload (IPC aside — lattice cells carry no timing model).
func TestServedSweepBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, LabWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := s.Lab().Cfg
	req := JobRequest{
		Workloads: []string{"mcf_like", "libquantum_like"},
		Sweep: &experiments.LatticeSpec{
			MinSets: cfg.Sets() / 2,
			MaxSets: cfg.Sets(),
			MaxWays: cfg.Ways,
			PLRU:    []stackdist.Geometry{{Sets: cfg.Sets(), Ways: cfg.Ways}},
		},
	}
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	spec := experiments.LatticeSpec{
		MinSets: req.Sweep.MinSets, MaxSets: req.Sweep.MaxSets,
		MaxWays: req.Sweep.MaxWays, PLRU: req.Sweep.PLRU,
	}
	wantTotal := 2 * spec.Points()
	if st.CellsTotal != wantTotal {
		t.Fatalf("CellsTotal = %d, want %d", st.CellsTotal, wantTotal)
	}
	if st.Sweep == nil || st.Sweep.MaxWays != cfg.Ways {
		t.Fatalf("status sweep section = %+v, want the submitted lattice", st.Sweep)
	}

	done := waitState(t, ts, st.ID, StateDone)
	rresp, err := http.Get(ts.URL + done.ResultURL)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer rresp.Body.Close()
	var res Result
	if err := json.NewDecoder(rresp.Body).Decode(&res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Sweep == nil {
		t.Fatal("result manifest missing sweep section")
	}
	if len(res.Cells) != wantTotal {
		t.Fatalf("result has %d cells, want %d", len(res.Cells), wantTotal)
	}

	// The CLI side: a fresh Lab at the same scale running the same lattice.
	job, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewLab(testScale).SweepGrid(context.Background(), spec, job.wls, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Cells[i] != want[i] {
			t.Errorf("cell %d: served %+v, direct one-pass %+v", i, res.Cells[i], want[i])
		}
	}

	// The engine bridge: the served lattice point at the daemon's own
	// geometry equals the grid engine's LRU cell, bit for bit.
	lruLabel := fmt.Sprintf("lru@%dx%d", cfg.Sets(), cfg.Ways)
	var lat *experiments.GridCell
	for i := range res.Cells {
		if res.Cells[i].Workload == "mcf_like" && res.Cells[i].Policy == lruLabel {
			lat = &res.Cells[i]
		}
	}
	if lat == nil {
		t.Fatalf("no served cell labeled %s", lruLabel)
	}
	sp, err := experiments.SpecFromRegistry("lru")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := experiments.NewLab(testScale).Grid(context.Background(), []experiments.Spec{sp}, job.wls[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	g := grid[0]
	if lat.MPKI != g.MPKI || lat.HitPct != g.HitPct || lat.Misses != g.Misses || lat.Accesses != g.Accesses {
		t.Errorf("%s: served lattice cell %+v != grid engine cell %+v", lruLabel, *lat, g)
	}
}
