package experiments

import (
	"sync"
	"testing"

	"gippr/internal/workload"
)

// Shape tests assert the paper's qualitative results on the archetypal
// workloads at Default scale. They are the reproduction's core regression
// suite: if a policy or workload change breaks a paper-level shape, these
// fail. They share one Default-scale lab and run a few seconds; skipped
// under -short.

var (
	shapeOnce sync.Once
	shapeLab  *Lab
)

func defaultLab(t *testing.T) *Lab {
	if testing.Short() {
		t.Skip("default-scale shape test skipped in short mode")
	}
	shapeOnce.Do(func() { shapeLab = NewLab(Default) })
	return shapeLab
}

func byName(t *testing.T, lab *Lab, name string) workload.Workload {
	t.Helper()
	for _, w := range lab.Suite() {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %q missing", name)
	return workload.Workload{}
}

func TestShapeThrashWorkload(t *testing.T) {
	lab := defaultLab(t)
	w := byName(t, lab, "cactusADM_like")
	lru := lab.MPKI(SpecLRU, w)
	// The paper's cactusADM: GIPPR-family and DRRIP/PDP all slash misses.
	for _, s := range []Spec{SpecDRRIP, SpecPDP, SpecWI4DGIPPR} {
		if got := lab.MPKI(s, w); got > 0.6*lru {
			t.Errorf("%s MPKI %.1f vs LRU %.1f: expected a large thrash win", s.Label, got, lru)
		}
	}
	// MIN is at or below all of them.
	min := lab.OptimalMPKI(w)
	if min > lab.MPKI(SpecPDP, w)+1 {
		t.Errorf("MIN MPKI %.1f above PDP", min)
	}
	// PLRU tracks LRU.
	if plru := lab.MPKI(SpecPLRU, w); plru < 0.9*lru || plru > 1.1*lru {
		t.Errorf("PLRU MPKI %.1f far from LRU %.1f", plru, lru)
	}
}

func TestShapeLRUFriendlyWorkload(t *testing.T) {
	lab := defaultLab(t)
	w := byName(t, lab, "dealII_like")
	lru := lab.MPKI(SpecLRU, w)
	// The paper's dealII: misses are increased greatly over LRU for
	// DRRIP and 4-DGIPPR; PDP fares better than the others; MIN == LRU.
	if dr := lab.MPKI(SpecDRRIP, w); dr < 1.1*lru {
		t.Errorf("DRRIP MPKI %.1f should be well above LRU %.1f on dealII-like", dr, lru)
	}
	if pdp := lab.MPKI(SpecPDP, w); pdp > 1.15*lru {
		t.Errorf("PDP MPKI %.1f should stay near LRU %.1f on dealII-like", pdp, lru)
	}
	if min := lab.OptimalMPKI(w); min > 1.01*lru {
		t.Errorf("MIN %.1f above LRU %.1f", min, lru)
	}
}

func TestShapeInsensitiveWorkload(t *testing.T) {
	lab := defaultLab(t)
	// The paper: for 416.gamess and 453.povray, MIN, LRU, and all other
	// policies deliver about the same (near-zero) misses.
	for _, name := range []string{"gamess_like", "povray_like"} {
		w := byName(t, lab, name)
		for _, s := range []Spec{SpecLRU, SpecDRRIP, SpecPDP, SpecWI4DGIPPR, SpecRandom} {
			if got := lab.Speedup(s, SpecLRU, w); got < 0.99 || got > 1.01 {
				t.Errorf("%s on %s: speedup %v, expected ~1", s.Label, name, got)
			}
		}
	}
}

func TestShapeAdaptivityBeatsStaticOnPhased(t *testing.T) {
	lab := defaultLab(t)
	w := byName(t, lab, "hmmer_like")
	// Adaptive DGIPPR must not be much worse than the better of its
	// extremes on a phase-alternating workload; crucially it must beat
	// the wrong static choice.
	d4 := lab.MPKI(SpecWI4DGIPPR, w)
	lru := lab.MPKI(SpecLRU, w)
	if d4 > lru {
		t.Errorf("4-DGIPPR MPKI %.1f above LRU %.1f on a phase-alternating workload", d4, lru)
	}
}

func TestShapeStreamWithHotLoop(t *testing.T) {
	lab := defaultLab(t)
	w := byName(t, lab, "lbm_like")
	lru := lab.MPKI(SpecLRU, w)
	// Scan-resistant policies protect the hot loop from the stream.
	for _, s := range []Spec{SpecDRRIP, SpecPDP} {
		if got := lab.MPKI(s, w); got > lru {
			t.Errorf("%s MPKI %.1f above LRU %.1f under streaming interference", s.Label, got, lru)
		}
	}
}

func TestShapeOptimalDominatesEverywhere(t *testing.T) {
	lab := defaultLab(t)
	for _, name := range []string{"mcf_like", "libquantum_like", "omnetpp_like", "xalancbmk_like"} {
		w := byName(t, lab, name)
		min := lab.OptimalMPKI(w)
		for _, s := range []Spec{SpecLRU, SpecDRRIP, SpecPDP, SpecWI4DGIPPR, SpecRandom} {
			if got := lab.MPKI(s, w); got < min-0.5 {
				t.Errorf("%s on %s: MPKI %.2f below MIN %.2f", s.Label, name, got, min)
			}
		}
	}
}

func TestHeadlineNumbersFrozen(t *testing.T) {
	// Everything in this repository is deterministic, so the headline
	// Figure 11 geomeans can be pinned exactly (to float-printing
	// precision). If a workload, policy or model change moves these, the
	// change is real: regenerate the report (go run ./cmd/gippr-report
	// -scale default) and update EXPERIMENTS.md alongside this test.
	lab := defaultLab(t)
	tbl := Fig11(lab)
	want := map[string]float64{
		"DRRIP":       0.8077,
		"PDP":         0.7966,
		"WN-4-DGIPPR": 0.8053,
		"Optimal":     0.6744,
	}
	for col, w := range want {
		got := tbl.GeoMean(col)
		if got < w-0.0001 || got > w+0.0001 {
			t.Errorf("%s geomean normalized MPKI = %.4f, EXPERIMENTS.md records %.4f", col, got, w)
		}
	}
}
