package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func smokeLab() *Lab { return NewLab(Smoke) }

func TestScaleFromEnv(t *testing.T) {
	t.Setenv("GIPPR_SCALE", "smoke")
	if ScaleFromEnv().Name != "smoke" {
		t.Fatal("smoke not selected")
	}
	t.Setenv("GIPPR_SCALE", "full")
	if ScaleFromEnv().Name != "full" {
		t.Fatal("full not selected")
	}
	t.Setenv("GIPPR_SCALE", "")
	if ScaleFromEnv().Name != "default" {
		t.Fatal("default not selected")
	}
}

// TestParseScale pins the one -scale resolver every tool calls: each
// preset by name, the empty value deferring to GIPPR_SCALE, and an unknown
// name an error that lists the presets.
func TestParseScale(t *testing.T) {
	t.Setenv("GIPPR_SCALE", "full")
	for _, tc := range []struct {
		name string
		want Scale
		bad  bool
	}{
		{name: "", want: Full},
		{name: "smoke", want: Smoke},
		{name: "default", want: Default},
		{name: "full", want: Full},
		{name: "Smoke", bad: true},
		{name: "custom", bad: true},
		{name: "huge", bad: true},
	} {
		got, err := ParseScale(tc.name)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseScale(%q) = %s, want an error", tc.name, got.Name)
				continue
			}
			for _, preset := range []string{"smoke", "default", "full"} {
				if !strings.Contains(err.Error(), preset) {
					t.Errorf("ParseScale(%q) error %q does not list %q", tc.name, err, preset)
				}
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseScale(%q) = (%+v, %v), want %s", tc.name, got, err, tc.want.Name)
		}
	}
}

func TestScaleValidate(t *testing.T) {
	for _, tc := range []struct {
		records int
		warm    float64
		flag    string // "" when the scale is valid
	}{
		{600_000, 1.0 / 3, ""},
		{1, 0, ""},
		{5000, 0.999, ""},
		{0, 1.0 / 3, "-records"},
		{-1, 1.0 / 3, "-records"},
		{5000, -0.5, "-warm"},
		{5000, 1, "-warm"},
		{5000, 1.5, "-warm"},
		{5000, math.NaN(), "-warm"},
		{5000, math.Inf(1), "-warm"},
	} {
		err := CustomScale(tc.records, tc.warm).Validate()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("records %d warm %v: unexpected error %v", tc.records, tc.warm, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("records %d warm %v: error %v, want one naming %s", tc.records, tc.warm, err, tc.flag)
		}
	}
	for _, s := range []Scale{Smoke, Default, Full} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s: %v", s.Name, err)
		}
	}
}

func TestStreamsBuiltOncePerWorkload(t *testing.T) {
	lab := smokeLab()
	w := lab.Suite()[0]
	a := lab.Streams(w)
	b := lab.Streams(w)
	if &a[0].Records[0] != &b[0].Records[0] {
		t.Fatal("streams rebuilt instead of memoized")
	}
	if len(a) != len(w.Phases) {
		t.Fatalf("%d streams for %d phases", len(a), len(w.Phases))
	}
}

func TestStreamsCarryInstructionGaps(t *testing.T) {
	lab := smokeLab()
	st := lab.Streams(lab.Suite()[0])[0]
	if len(st.Records) == 0 {
		t.Fatal("empty LLC stream")
	}
	var instrs uint64
	for _, r := range st.Records {
		if r.Gap == 0 {
			t.Fatal("zero-gap record in LLC stream")
		}
		instrs += uint64(r.Gap)
	}
	if instrs <= uint64(len(st.Records)) {
		t.Fatal("gaps do not accumulate skipped instructions")
	}
}

func TestMPKIMemoization(t *testing.T) {
	lab := smokeLab()
	w := lab.Suite()[1]
	a := lab.MPKI(SpecLRU, w)
	b := lab.MPKI(SpecLRU, w)
	if a != b {
		t.Fatal("memoized MPKI differs")
	}
	if a <= 0 {
		t.Fatalf("MPKI = %v for a memory-heavy workload", a)
	}
}

func TestSpeedupBaselineIsOne(t *testing.T) {
	lab := smokeLab()
	w := lab.Suite()[2]
	if got := lab.Speedup(SpecLRU, SpecLRU, w); got != 1 {
		t.Fatalf("self-speedup = %v", got)
	}
}

func TestNormalizedMPKIInsensitiveGuard(t *testing.T) {
	lab := smokeLab()
	// gamess_like has essentially no post-warm LLC misses; the guard must
	// return exactly 1 for every policy.
	for _, w := range lab.Suite() {
		if w.Name != "gamess_like" {
			continue
		}
		if got := lab.NormalizedMPKI(SpecRandom, SpecLRU, w); got != 1 {
			t.Fatalf("insensitive workload normalized MPKI = %v", got)
		}
		if got := lab.OptimalNormalizedMPKI(SpecLRU, w); got != 1 {
			t.Fatalf("insensitive workload optimal normalized MPKI = %v", got)
		}
	}
}

func TestFoldAssignmentStable(t *testing.T) {
	if FoldOf("mcf_like") != 0 {
		t.Fatalf("mcf_like fold = %d", FoldOf("mcf_like"))
	}
	counts := make([]int, NumFolds)
	lab := smokeLab()
	for _, w := range lab.Suite() {
		f := FoldOf(w.Name)
		if f < 0 || f >= NumFolds {
			t.Fatalf("fold %d out of range", f)
		}
		counts[f]++
	}
	for f, c := range counts {
		if c < 5 {
			t.Fatalf("fold %d has only %d workloads", f, c)
		}
	}
}

func TestWNVectorAccessors(t *testing.T) {
	for _, name := range []string{"mcf_like", "povray_like"} {
		if WNVectors1(name) == nil {
			t.Fatal("nil WN vector")
		}
		if WNVectors2(name)[0] == nil || WNVectors2(name)[1] == nil {
			t.Fatal("nil WN pair")
		}
		for _, v := range WNVectors4(name) {
			if v == nil {
				t.Fatal("nil WN quad member")
			}
			if err := v.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTableOperations(t *testing.T) {
	tbl := &Table{
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows: []TableRow{
			{Name: "x", Values: []float64{2, 1}},
			{Name: "y", Values: []float64{1, 4}},
		},
	}
	tbl.SortByColumn("a")
	if tbl.Rows[0].Name != "y" {
		t.Fatal("sort failed")
	}
	gm := tbl.GeoMeans()
	if gm[0] < 1.40 || gm[0] > 1.45 { // sqrt(2) ~ 1.414
		t.Fatalf("geomean a = %v", gm[0])
	}
	if got := tbl.Value("x", "b"); got != 1 {
		t.Fatalf("Value = %v", got)
	}
	if got := tbl.GeoMeanOver("b", func(r string) bool { return r == "y" }); got != 4 {
		t.Fatalf("subset geomean = %v", got)
	}
	out := tbl.Format()
	for _, want := range []string{"test", "geomean", "benchmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q", want)
		}
	}
}

func TestTablePanicsOnUnknown(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a"}, Rows: []TableRow{{Name: "x", Values: []float64{1}}}}
	for _, f := range []func(){
		func() { tbl.SortByColumn("zz") },
		func() { tbl.Value("zz", "a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFig2Fig3Structure(t *testing.T) {
	g2 := Fig2()
	if g2.K != 16 || len(g2.Solid) != 17 {
		t.Fatalf("Fig2 graph malformed: k=%d solid=%d", g2.K, len(g2.Solid))
	}
	g3 := Fig3()
	if g3.K != 16 {
		t.Fatal("Fig3 graph malformed")
	}
	if len(g3.Dashed) <= len(g2.Dashed)-1 {
		// The evolved vector has demotions, so it has shift-up edges LRU
		// lacks; just sanity-check both render.
		_ = g3
	}
	if !strings.Contains(g3.DOT("x"), "digraph") {
		t.Fatal("DOT render failed")
	}
}

func TestFig1Smoke(t *testing.T) {
	lab := smokeLab()
	res := Fig1(lab)
	if res.Samples != Smoke.RandomIPVs {
		t.Fatalf("samples = %d", res.Samples)
	}
	for i := 1; i < len(res.Sorted); i++ {
		if res.Sorted[i] < res.Sorted[i-1] {
			t.Fatal("curve not sorted")
		}
	}
	// The curve's dynamic range stays modest (the paper's random sample
	// tops out below +3%; ours below ~+10% — see EXPERIMENTS.md on the
	// fraction-beating-LRU divergence, which depends on the suite's
	// thrash weighting and the trace scale).
	if res.Summary.Max > 1.5 || res.Summary.Min < 0.5 {
		t.Fatalf("random-IPV speedups out of plausible range: [%v, %v]",
			res.Summary.Min, res.Summary.Max)
	}
	if !strings.Contains(res.Format(), "percentile") {
		t.Fatal("format")
	}
}

func TestFig4Smoke(t *testing.T) {
	lab := smokeLab()
	tbl := Fig4(lab)
	if len(tbl.Rows) != 29 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if len(tbl.Columns) != 3 {
		t.Fatalf("columns %v", tbl.Columns)
	}
	for _, c := range tbl.Columns {
		g := tbl.GeoMean(c)
		if g < 0.5 || g > 2.5 {
			t.Fatalf("%s geomean speedup = %v: implausible", c, g)
		}
	}
}

func TestFig10And11Smoke(t *testing.T) {
	lab := smokeLab()
	t10 := Fig10(lab)
	if len(t10.Rows) != 29 || len(t10.Columns) != 4 {
		t.Fatalf("fig10 shape %dx%d", len(t10.Rows), len(t10.Columns))
	}
	// Optimal must have the lowest geomean normalized MPKI.
	gms := t10.GeoMeans()
	opt := gms[len(gms)-1]
	for _, g := range gms[:len(gms)-1] {
		if opt > g+1e-9 {
			t.Fatalf("optimal geomean %v above a real policy %v", opt, g)
		}
	}
	t11 := Fig11(lab)
	if len(t11.Rows) != 29 || len(t11.Columns) != 4 {
		t.Fatalf("fig11 shape %dx%d", len(t11.Rows), len(t11.Columns))
	}
}

func TestFig12Smoke(t *testing.T) {
	lab := smokeLab()
	tbl := Fig12(lab)
	if len(tbl.Columns) != 6 {
		t.Fatalf("columns %v", tbl.Columns)
	}
}

func TestFig13Smoke(t *testing.T) {
	lab := smokeLab()
	res := Fig13(lab)
	if len(res.Table.Rows) != 29 {
		t.Fatalf("rows %d", len(res.Table.Rows))
	}
	out := res.Format()
	if !strings.Contains(out, "memory-intensive subset") {
		t.Fatal("format")
	}
	for _, n := range res.MemoryIntensive {
		if res.Table.Value(n, "DRRIP") <= 1.01 {
			t.Fatalf("%s in subset but DRRIP speedup %v", n, res.Table.Value(n, "DRRIP"))
		}
	}
}

func TestOverheadReport(t *testing.T) {
	lab := smokeLab()
	s, err := Overhead(lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LRU", "DRRIP", "PDP", "4-DGIPPR"} {
		if !strings.Contains(s, want) {
			t.Fatalf("overhead report missing %q", want)
		}
	}
}

func TestVectorsLearnedSmoke(t *testing.T) {
	lab := smokeLab()
	res := VectorsLearned(lab)
	if err := res.Fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.FreshFit <= 0 {
		t.Fatalf("fresh fitness %v", res.FreshFit)
	}
	if !strings.Contains(res.Format(), "WI-4-DGIPPR") {
		t.Fatal("format")
	}
}

func TestGAEnvStreamsTruncated(t *testing.T) {
	lab := smokeLab()
	env, err := lab.GAEnvCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, w := range lab.Suite() {
		for _, s := range lab.Streams(w) {
			full += len(s.Records)
		}
	}
	ga := 0
	for _, s := range env.Streams() {
		ga += len(s.Records)
	}
	if ga >= full {
		t.Fatalf("GA streams (%d) not smaller than full streams (%d)", ga, full)
	}
}
