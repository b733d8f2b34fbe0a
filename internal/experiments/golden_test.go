package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/stackdist"
	"gippr/internal/workload"
)

// updateGolden rewrites testdata/golden_mpki.json from the current
// simulator output:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Each golden test owns its sections of the file ("grid" for the policy
// roster's MPKI, "lattice" for the one-pass sweep, "cpi" for the roster's
// window-model CPI, "grid_small" and "cpi_small" for every policy at a
// small LLC) and rewrites only its own, so a partial -update run
// never discards the other sections' fingerprints.
// Review the diff before committing — any change means the simulation is no
// longer bit-compatible with the checked-in fingerprints.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_mpki.json with current MPKI and CPI values")

const goldenPath = "testdata/golden_mpki.json"

// goldenFile is the fingerprint document: grid is workload -> policy key ->
// MPKI for the roster policies at the paper LLC; lattice is workload ->
// lattice point label -> MPKI for the one-pass geometry sweep; cpi is
// workload -> policy key -> window-model CPI for the same roster. grid_small
// and cpi_small are the same two maps for goldenSmallSpecs at
// goldenSmallConfig.
type goldenFile struct {
	Grid      map[string]map[string]string `json:"grid"`
	Lattice   map[string]map[string]string `json:"lattice"`
	CPI       map[string]map[string]string `json:"cpi"`
	GridSmall map[string]map[string]string `json:"grid_small"`
	CPISmall  map[string]map[string]string `json:"cpi_small"`
}

// loadGoldenFile reads the checked-in fingerprint document; missing files
// come back empty so an -update run can populate from scratch.
func loadGoldenFile(t *testing.T) *goldenFile {
	t.Helper()
	var g goldenFile
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		if os.IsNotExist(err) && *updateGolden {
			return &g
		}
		t.Fatalf("reading golden fingerprints (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return &g
}

// saveGoldenFile writes the fingerprint document back. Callers mutate only
// their own section of a freshly loaded file, preserving the rest.
func saveGoldenFile(t *testing.T, g *goldenFile) {
	t.Helper()
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareGoldenSection reports every mismatch between a computed section and
// its checked-in counterpart, in both directions.
func compareGoldenSection(t *testing.T, section string, got, want map[string]map[string]string) {
	t.Helper()
	if want == nil {
		t.Fatalf("golden file has no %q section (regenerate with -update)", section)
	}
	if len(want) != len(got) {
		t.Errorf("golden %s section covers %d workloads, simulator produced %d (regenerate with -update?)",
			section, len(want), len(got))
	}
	for wl, row := range got {
		wantRow, ok := want[wl]
		if !ok {
			t.Errorf("%s: workload %s missing from golden file (regenerate with -update?)", section, wl)
			continue
		}
		for key, v := range row {
			if wv, ok := wantRow[key]; !ok {
				t.Errorf("%s: %s/%s missing from golden file (regenerate with -update?)", section, wl, key)
			} else if v != wv {
				t.Errorf("%s: %s/%s: computed %s, golden %s", section, wl, key, v, wv)
			}
		}
	}
}

// goldenSpecs is the fingerprinted roster: the headline baselines, the
// strongest prior work, and the GIPPR family — the same roster the
// gippr-report telemetry manifest covers.
func goldenSpecs() []Spec {
	return []Spec{
		SpecLRU, SpecPLRU, SpecDRRIP, SpecPDP,
		SpecSHiP, SpecMSLRU, SpecWIGIPPR, SpecWI2DGIPPR, SpecWI4DGIPPR,
	}
}

// goldenKey formats an MPKI or CPI for exact comparison. 'g'/17 round-trips every
// float64 bit pattern, so two runs match iff their doubles are identical.
func goldenKey(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// loadGolden reads the grid section's workload -> policy -> MPKI
// fingerprints.
func loadGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	g := loadGoldenFile(t)
	if g.Grid == nil {
		t.Fatalf("golden file has no grid section (regenerate with -update)")
	}
	return g.Grid
}

// TestGoldenMPKI pins the smoke-scale LLC MPKI of every roster policy on
// every workload to checked-in fingerprints, exactly (bit-identical
// float64s). Any intentional change to workload generation, the hierarchy
// filter, replacement policy behaviour or the replay loop must regenerate
// the file with -update; an unintentional difference is a regression this
// test exists to catch.
func TestGoldenMPKI(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(1)
	specs := goldenSpecs()

	got := map[string]map[string]string{}
	for _, w := range lab.Suite() {
		row := map[string]string{}
		for _, spec := range specs {
			row[spec.Key] = goldenKey(lab.MPKI(spec, w))
		}
		got[w.Name] = row
	}

	if *updateGolden {
		g := loadGoldenFile(t)
		g.Grid = got
		saveGoldenFile(t, g)
		t.Logf("rewrote %s grid section: %d workloads x %d policies", goldenPath, len(got), len(specs))
		return
	}

	compareGoldenSection(t, "grid", got, loadGolden(t))
}

// TestGoldenCPI pins the smoke-scale window-model CPI of every roster policy
// on every workload, exactly, the way TestGoldenMPKI pins MPKI. MPKI alone
// cannot see the timing model: a change to the window model's dispatch,
// retirement or DRAM serialization moves these values and no MPKI. It
// shares the -update flow but rewrites only the cpi section.
func TestGoldenCPI(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(1)
	specs := goldenSpecs()

	got := map[string]map[string]string{}
	for _, w := range lab.Suite() {
		row := map[string]string{}
		for _, spec := range specs {
			row[spec.Key] = goldenKey(lab.CPI(spec, w))
		}
		got[w.Name] = row
	}

	if *updateGolden {
		g := loadGoldenFile(t)
		g.CPI = got
		saveGoldenFile(t, g)
		t.Logf("rewrote %s cpi section: %d workloads x %d policies", goldenPath, len(got), len(specs))
		return
	}

	compareGoldenSection(t, "cpi", got, loadGoldenFile(t).CPI)
}

// goldenSmallConfig is a 256-set x 16-way (256 KB) LLC. Smoke streams
// hardly fill the paper's 4 MB LLC, so at that size most policies agree on
// most workloads; at this one the replacement decisions show in the MPKI of
// most of the suite.
var goldenSmallConfig = cache.Config{Name: "L3-256x16", SizeBytes: 256 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}

// goldenSmallSpecs is every registry policy, plus GIPPR+bypass and the
// workload-inclusive and workload-neutral DGIPPR specs.
func goldenSmallSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range policy.Names() {
		s, err := SpecFromRegistry(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return append(specs, SpecGIPPRBypass, SpecWI2DGIPPR, SpecWI4DGIPPR, SpecWN2DGIPPR, SpecWN4DGIPPR)
}

// TestGoldenSmallLLC pins the MPKI and window-model CPI of goldenSmallSpecs
// on every workload's smoke streams at goldenSmallConfig, exactly, through
// Lab.Grid, the path served grid jobs take. Unlike the grid and cpi
// sections, these see a filling LLC, so a change to a policy's decisions
// moves most rows. It shares the -update flow but rewrites only the
// grid_small and cpi_small sections.
func TestGoldenSmallLLC(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(2)
	lab.Cfg = goldenSmallConfig
	specs := goldenSmallSpecs(t)

	cells, err := lab.Grid(context.Background(), specs, lab.Suite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mpki := map[string]map[string]string{}
	cpi := map[string]map[string]string{}
	for i, c := range cells {
		w, spec := lab.Suite()[i/len(specs)], specs[i%len(specs)]
		if mpki[w.Name] == nil {
			mpki[w.Name], cpi[w.Name] = map[string]string{}, map[string]string{}
		}
		mpki[w.Name][spec.Key] = goldenKey(c.MPKI)
		cpi[w.Name][spec.Key] = goldenKey(lab.CPI(spec, w)) // a memo read after Grid
	}

	if *updateGolden {
		g := loadGoldenFile(t)
		g.GridSmall, g.CPISmall = mpki, cpi
		saveGoldenFile(t, g)
		t.Logf("rewrote %s grid_small and cpi_small sections: %d workloads x %d policies", goldenPath, len(mpki), len(specs))
		return
	}

	g := loadGoldenFile(t)
	compareGoldenSection(t, "grid_small", mpki, g.GridSmall)
	compareGoldenSection(t, "cpi_small", cpi, g.CPISmall)
}

// goldenLatticeSpec is the fingerprinted one-pass lattice: the paper LLC's
// set count and its half, every associativity up to the LLC's, tree-PLRU at
// the LLC's own shape. Small enough to keep the golden file reviewable,
// wide enough to cover both engine paths (exact stacks and grouped PLRU).
func goldenLatticeSpec() LatticeSpec {
	return LatticeSpec{
		MinSets: 2048,
		MaxSets: 4096,
		MaxWays: 16,
		PLRU:    []stackdist.Geometry{{Sets: 4096, Ways: 16}},
	}
}

// TestGoldenLattice pins the one-pass sweep's smoke-scale MPKI per lattice
// point to checked-in fingerprints, exactly, over a fixed workload subset —
// the lattice counterpart of TestGoldenMPKI. It shares the -update flow but
// rewrites only the lattice section.
func TestGoldenLattice(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(1)
	spec := goldenLatticeSpec()
	labels := spec.Labels()

	got := map[string]map[string]string{}
	for _, w := range lab.Suite()[:6] {
		cells, err := lab.SweepGrid(context.Background(), spec, []workload.Workload{w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := map[string]string{}
		for i, label := range labels {
			row[label] = goldenKey(cells[i].MPKI)
		}
		got[w.Name] = row
	}

	if *updateGolden {
		g := loadGoldenFile(t)
		g.Lattice = got
		saveGoldenFile(t, g)
		t.Logf("rewrote %s lattice section: %d workloads x %d points", goldenPath, len(got), len(labels))
		return
	}

	compareGoldenSection(t, "lattice", got, loadGoldenFile(t).Lattice)
}

// TestGoldenMPKIWorkersAndTelemetryInvariant re-derives the fingerprinted
// MPKIs down the *other* code path — eight replay workers instead of one,
// and with a telemetry sink attached to every replay — and requires
// bit-identical agreement with the golden file. This pins two invariants at
// once: worker scheduling must not perturb results (each (policy, workload)
// cell is an independent deterministic replay), and instrumentation must
// observe the simulation without disturbing it.
func TestGoldenMPKIWorkersAndTelemetryInvariant(t *testing.T) {
	want := loadGolden(t)
	lab := NewLab(Smoke).SetWorkers(8)
	specs := goldenSpecs()
	if testing.Short() {
		specs = specs[:3] // lru, plru, drrip: still crosses both code paths
	}
	m, err := lab.Manifest(context.Background(), "golden-test", "golden", specs)
	if err != nil {
		t.Fatal(err)
	}
	if wantN := len(specs) * len(lab.Suite()); len(m.Entries) != wantN {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), wantN)
	}
	labels := map[string]string{} // spec label -> golden key
	for _, s := range specs {
		labels[s.Label] = s.Key
	}
	for _, e := range m.Entries {
		wv := want[e.Workload][labels[e.Policy]]
		if wv == "" {
			t.Fatalf("no golden value for %s/%s", e.Workload, e.Policy)
		}
		if gv := goldenKey(e.MPKI); gv != wv {
			t.Errorf("%s/%s: instrumented 8-worker MPKI %s, golden %s", e.Workload, e.Policy, gv, wv)
		}
		if e.LLC.Accesses == 0 {
			t.Errorf("%s/%s: telemetry sink saw no events", e.Workload, e.Policy)
		}
	}
}
