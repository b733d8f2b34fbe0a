package experiments

// Tests for the grid engine (Lab.Grid: one task per (policy, workload,
// phase) cell, each a one-policy cpu.MultiWindowReplay of the phase's
// stream) and the set-sampling estimator: the engine must be bit-identical
// to direct per-spec replays for every registered policy, and the
// estimator must stay within pinned relative-error tolerances of the full
// simulation (DESIGN.md §9).

import (
	"context"
	"testing"

	"gippr/internal/cpu"
	"gippr/internal/stats"
)

// registeredSpecs is every policy spec the experiments package defines: the
// baselines, the prior-work roster, and the full GIPPR family. The
// equivalence test runs the whole list so a policy with replay-order
// dependence (e.g. one that secretly shares state across instances) cannot
// hide outside the golden roster.
func registeredSpecs() []Spec {
	return []Spec{
		SpecLRU, SpecPLRU, SpecRandom, SpecFIFO, SpecNRU,
		SpecLIP, SpecBIP, SpecDIP,
		SpecSRRIP, SpecBRRIP, SpecDRRIP, SpecPDP, SpecSHiP, SpecMSLRU,
		SpecGIPLR,
		SpecWIGIPPR, SpecWI2DGIPPR, SpecWI4DGIPPR,
		SpecWNGIPPR, SpecWN2DGIPPR, SpecWN4DGIPPR,
	}
}

// requireSettled asserts that every (spec, workload, phase) result of the
// suite is settled, so the MPKI and CPI reads that follow are memo reads
// of the grid's walks and start no replay of their own.
func requireSettled(t *testing.T, l *Lab, specs []Spec) {
	t.Helper()
	for _, w := range l.Suite() {
		for p := range w.Phases {
			for _, s := range specs {
				e := l.results.entry(phaseKey(s, w, p))
				e.mu.Lock()
				done := e.done
				e.mu.Unlock()
				if !done {
					t.Fatalf("grid left %s unsettled", phaseKey(s, w, p))
				}
			}
		}
	}
}

// TestGoldenMPKIMultiRun pins the grid engine to the same checked-in
// fingerprints as TestGoldenMPKI: a grid over every spec must reproduce
// the one-spec walks' MPKIs bit-identically, not merely approximately — at
// one worker and at eight, so neither scheduling nor the cache's inline
// IPV step (which carries the packable roster policies, see cache.Packable
// and cache.PackableLanes) can perturb a fingerprint.
func TestGoldenMPKIMultiRun(t *testing.T) {
	want := loadGolden(t)
	specs := goldenSpecs()
	if testing.Short() {
		specs = specs[:3]
	}
	for _, workers := range []int{1, 8} {
		lab := NewLab(Smoke).SetWorkers(workers)
		if _, err := lab.Grid(context.Background(), specs, lab.Suite(), nil); err != nil {
			t.Fatal(err)
		}
		requireSettled(t, lab, specs)
		for _, w := range lab.Suite() {
			for _, s := range specs {
				wv := want[w.Name][s.Key]
				if wv == "" {
					t.Fatalf("no golden value for %s/%s", w.Name, s.Key)
				}
				if gv := goldenKey(lab.MPKI(s, w)); gv != wv {
					t.Errorf("workers=%d %s/%s: single-pass MPKI %s, golden %s", workers, w.Name, s.Key, gv, wv)
				}
			}
		}
	}
}

// TestMultiRunEquivalence holds the tentpole invariant: for every registered
// policy, on every workload, the grid engine (one task per cell, each
// walking its phase's stream under one policy model) produces
// bit-identical MPKI and CPI to an independent reference — one direct
// cpu.WindowReplay per (spec, workload, phase), aggregated in phase order
// — at one worker and at eight, so scheduling cannot perturb results
// either. The reference replays the
// lab's own captured streams, so any disagreement is in the replay engine
// or the memo, never in stream capture.
func TestMultiRunEquivalence(t *testing.T) {
	specs := registeredSpecs()
	if testing.Short() {
		// A cross-family slice: recency, RRIP, duelling, and per-workload
		// vector selection all stay covered.
		specs = []Spec{SpecLRU, SpecPLRU, SpecDRRIP, SpecSHiP, SpecWN4DGIPPR}
	}
	lab := NewLab(Smoke).SetWorkers(8)
	if err := lab.PrefetchStreamsCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	cfg := lab.Cfg
	type ref struct{ mpki, cpi string }
	refs := map[string]ref{} // spec|workload -> reference aggregates
	for _, s := range specs {
		for _, w := range lab.Suite() {
			mpkis := make([]float64, len(w.Phases))
			cpis := make([]float64, len(w.Phases))
			wts := make([]float64, len(w.Phases))
			for p, st := range lab.Streams(w) {
				warm := int(float64(len(st.Records)) * lab.Scale.WarmFrac)
				res := cpu.WindowReplay(st.Records, cfg, s.New(w.Name, cfg.Sets(), cfg.Ways), warm, cpu.DefaultWindowModel())
				mpkis[p] = stats.MPKI(res.Misses, res.Instructions)
				cpis[p] = res.CPI
				wts[p] = w.Phases[p].Weight
			}
			refs[s.Key+"|"+w.Name] = ref{goldenKey(stats.WeightedMean(mpkis, wts)), goldenKey(stats.WeightedMean(cpis, wts))}
		}
	}

	for _, workers := range []int{1, 8} {
		multi := lab.WithSampling(0).SetWorkers(workers) // fresh memos, shared streams
		if _, err := multi.Grid(context.Background(), specs, multi.Suite(), nil); err != nil {
			t.Fatal(err)
		}
		requireSettled(t, multi, specs)
		for _, s := range specs {
			for _, w := range multi.Suite() {
				want := refs[s.Key+"|"+w.Name]
				if got := goldenKey(multi.MPKI(s, w)); got != want.mpki {
					t.Errorf("workers=%d %s/%s: reference MPKI %s, single-pass %s",
						workers, s.Key, w.Name, want.mpki, got)
				}
				if got := goldenKey(multi.CPI(s, w)); got != want.cpi {
					t.Errorf("workers=%d %s/%s: reference CPI %s, single-pass %s",
						workers, s.Key, w.Name, want.cpi, got)
				}
			}
		}
	}
}

// samplingTolerance pins the estimator's worst-case relative error per
// sampling shift at smoke scale (fixed seeds, so these are deterministic
// measurements with headroom, not statistical bounds): measured max errors
// are ~5.0% at s=1, ~6.0% at s=2 and ~11.8% at s=3. A regression past these
// ceilings means the estimator (hash selection, scaling, or the replay
// kernel under sampling) got worse, not that the dice rolled badly.
var samplingTolerance = map[uint]float64{1: 0.08, 2: 0.10, 3: 0.15}

// TestSamplingEstimateWithinTolerance runs the suite under true LRU at full
// fidelity and at shifts 1..3, and requires every LLC-sensitive workload's
// sampled MPKI to land within the pinned relative-error tolerance of the
// full simulation.
func TestSamplingEstimateWithinTolerance(t *testing.T) {
	lab := NewLab(Smoke).SetWorkers(8)
	shifts := []uint{1, 2, 3}
	res := Sampling(lab, SpecLRU, shifts...)

	sensitive := 0
	for _, row := range res.Table.Rows {
		if row.Values[0] >= samplingErrFloor {
			sensitive++
		}
	}
	if sensitive < 10 {
		t.Fatalf("only %d of %d workloads are LLC-sensitive; the tolerance check would be vacuous", sensitive, len(res.Table.Rows))
	}

	for i, s := range shifts {
		tol := samplingTolerance[s]
		if got := res.SampledSets[i]; got <= 0 || got >= res.Sets {
			t.Errorf("s=%d: %d sampled sets out of %d, want a proper subset", s, got, res.Sets)
		}
		if res.MaxRelErr[i] > tol {
			t.Errorf("s=%d: max relative error %.4f exceeds pinned tolerance %.2f", s, res.MaxRelErr[i], tol)
		}
		if res.MeanRelErr[i] > res.MaxRelErr[i] {
			t.Errorf("s=%d: mean relative error %.4f exceeds max %.4f", s, res.MeanRelErr[i], res.MaxRelErr[i])
		}
		col := res.Table.Columns[2+2*i] // "relerr s=<s>"
		for _, row := range res.Table.Rows {
			if relErr := row.Values[2+2*i]; relErr > tol {
				t.Errorf("%s %s: relative error %.4f exceeds pinned tolerance %.2f", row.Name, col, relErr, tol)
			}
		}
	}
}

// TestSamplingReproducible builds the sampled estimate twice from scratch —
// independent labs, different worker counts — and requires bit-identical
// MPKIs: the estimator is deterministic (hashed set selection under a fixed
// seed), so runs and schedules must never disagree.
func TestSamplingReproducible(t *testing.T) {
	const shift = 2
	a := NewLab(Smoke).SetWorkers(1).WithSampling(shift)
	b := NewLab(Smoke).SetWorkers(8).WithSampling(shift)
	a.prefetch([]Spec{SpecLRU}, false)
	b.prefetch([]Spec{SpecLRU}, false)
	for _, w := range a.Suite() {
		av, bv := goldenKey(a.MPKI(SpecLRU, w)), goldenKey(b.MPKI(SpecLRU, w))
		if av != bv {
			t.Errorf("%s: sampled MPKI %s at 1 worker, %s at 8 workers", w.Name, av, bv)
		}
	}
}
