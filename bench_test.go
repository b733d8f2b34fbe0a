package gippr

// One benchmark per paper figure (DESIGN.md section 3), plus ablation
// benches for the design decisions DESIGN.md calls out and microbenchmarks
// of the simulation kernels.
//
// Figure benches compute their experiment once per process (memoized lab,
// shared across benches) and report the figure's headline series as custom
// benchmark metrics, so `go test -bench=Fig` regenerates the paper's
// numbers. The full per-benchmark tables come from `go run
// ./cmd/gippr-report`. Scale follows GIPPR_SCALE (default: "default").

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/experiments"
	"gippr/internal/ipv"
	"gippr/internal/plrutree"
	"gippr/internal/policy"
	"gippr/internal/recency"
	"gippr/internal/stats"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() { benchLab = experiments.NewLab(experiments.ScaleFromEnv()) })
	return benchLab
}

// BenchmarkFig1RandomIPVSweep: the sorted random design-space exploration.
// Reported metrics: best and median estimated speedup and the fraction of
// random vectors beating LRU (paper: a small minority, best around +2.8%).
func BenchmarkFig1RandomIPVSweep(b *testing.B) {
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(lab())
	}
	b.ReportMetric(res.Summary.Max, "best-speedup")
	b.ReportMetric(res.Summary.Median, "median-speedup")
	b.ReportMetric(res.Summary.FractionAboveOne, "frac-beating-lru")
}

// BenchmarkFig2LRUTransitionGraph and BenchmarkFig3GIPLRTransitionGraph
// build the structural figures (they also serve as microbenchmarks of graph
// construction).
func BenchmarkFig2LRUTransitionGraph(b *testing.B) {
	var edges int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig2()
		edges = len(g.Solid) + len(g.Dashed)
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkFig3GIPLRTransitionGraph(b *testing.B) {
	var edges int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig3()
		edges = len(g.Solid) + len(g.Dashed)
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkFig4GIPLRSpeedup: geometric-mean speedup over LRU of PLRU,
// Random and the evolved GIPLR vector (paper: ~1.00, ~0.999, ~1.031).
func BenchmarkFig4GIPLRSpeedup(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig4(lab())
	}
	b.ReportMetric(t.GeoMean("PLRU"), "plru-speedup")
	b.ReportMetric(t.GeoMean("Random"), "random-speedup")
	b.ReportMetric(t.GeoMean("GIPLR"), "giplr-speedup")
}

// BenchmarkFig8PLRUPositions exercises the Figure 8 structural property:
// reading all 16 positions of a PseudoLRU tree after a promotion.
func BenchmarkFig8PLRUPositions(b *testing.B) {
	tr := plrutree.New(1, 16)
	s := 0
	for i := 0; i < b.N; i++ {
		tr.SetPosition(0, i&15, 0)
		for w := 0; w < 16; w++ {
			s += tr.Position(0, w)
		}
	}
	_ = s
}

// BenchmarkFig10NormalizedMPKI: geometric-mean MPKI normalized to LRU for
// the 1-, 2- and 4-vector workload-neutral GIPPR and Belady MIN
// (paper: 95.2%, 96.5%, 91.0%, 67.5%).
func BenchmarkFig10NormalizedMPKI(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10(lab())
	}
	b.ReportMetric(t.GeoMean("WN-GIPPR"), "wn-gippr")
	b.ReportMetric(t.GeoMean("WN-2-DGIPPR"), "wn-2dgippr")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(t.GeoMean("Optimal"), "optimal")
}

// BenchmarkFig11MPKIvsStateOfArt: geometric-mean normalized MPKI of DRRIP,
// PDP and WN-4-DGIPPR (paper: 91.5%, 90.2%, 91.0%).
func BenchmarkFig11MPKIvsStateOfArt(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig11(lab())
	}
	b.ReportMetric(t.GeoMean("DRRIP"), "drrip")
	b.ReportMetric(t.GeoMean("PDP"), "pdp")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(t.GeoMean("Optimal"), "optimal")
}

// BenchmarkFig12WNvsWI: workload-neutral vs workload-inclusive speedups
// (paper: 3.47/4.96/5.61% WN vs 3.68/5.12/5.66% WI).
func BenchmarkFig12WNvsWI(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig12(lab())
	}
	b.ReportMetric(t.GeoMean("WN-GIPPR"), "wn-1")
	b.ReportMetric(t.GeoMean("WN-2-DGIPPR"), "wn-2")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4")
	b.ReportMetric(t.GeoMean("WI-GIPPR"), "wi-1")
	b.ReportMetric(t.GeoMean("WI-2-DGIPPR"), "wi-2")
	b.ReportMetric(t.GeoMean("WI-4-DGIPPR"), "wi-4")
}

// BenchmarkFig13Speedup: overall and memory-intensive-subset speedups of
// DRRIP, PDP and WN-4-DGIPPR (paper: 5.41/5.69/5.61% overall,
// 15.6/16.4/15.6% on the subset).
func BenchmarkFig13Speedup(b *testing.B) {
	var res experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig13(lab())
	}
	b.ReportMetric(res.Table.GeoMean("DRRIP"), "drrip")
	b.ReportMetric(res.Table.GeoMean("PDP"), "pdp")
	b.ReportMetric(res.Table.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(res.SubsetGeoMeans["DRRIP"], "drrip-subset")
	b.ReportMetric(res.SubsetGeoMeans["PDP"], "pdp-subset")
	b.ReportMetric(res.SubsetGeoMeans["WN-4-DGIPPR"], "wn-4dgippr-subset")
	b.ReportMetric(float64(len(res.MemoryIntensive)), "subset-size")
}

// BenchmarkOverheadTable: the Section 3.6 storage comparison; reported
// metric is GIPPR's bits per block (paper: < 0.94).
func BenchmarkOverheadTable(b *testing.B) {
	var rows []policy.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = policy.OverheadTable(cache.L3Config, []string{"lru", "plru", "gippr", "2-dgippr", "4-dgippr", "drrip", "pdp"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Policy {
		case "GIPPR":
			b.ReportMetric(r.BitsPerBlock, "gippr-bits/block")
		case "LRU":
			b.ReportMetric(r.BitsPerBlock, "lru-bits/block")
		case "DRRIP":
			b.ReportMetric(r.BitsPerBlock, "drrip-bits/block")
		}
	}
}

// BenchmarkVectorsLearned: one GA run at the current scale (the Section 5.3
// pipeline end-to-end); metric is the best fitness found.
func BenchmarkVectorsLearned(b *testing.B) {
	var res experiments.VectorsLearnedResult
	for i := 0; i < b.N; i++ {
		res = experiments.VectorsLearned(lab())
	}
	b.ReportMetric(res.FreshFit, "best-fitness")
}

// BenchmarkLabGrid measures the parallel evaluation engine on a smoke-scale
// multi-policy grid: each iteration builds a fresh Lab (no memoization
// carry-over) and evaluates 4 policies x 8 workloads end to end, stream
// capture included. Sub-benchmark wall-clock times at workers=1 vs 4 show
// the engine's speedup on multi-core hardware; on a single-core machine the
// times converge instead (the pool degrades to the serial loop).
func BenchmarkLabGrid(b *testing.B) {
	specs := []experiments.Spec{
		experiments.SpecLRU, experiments.SpecPLRU,
		experiments.SpecDRRIP, experiments.SpecSRRIP,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := experiments.NewLab(experiments.Smoke).SetWorkers(workers)
				if _, err := l.Grid(context.Background(), specs, l.Suite()[:8], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdGrid times the grid a cold served job runs: each iteration
// builds a fresh Lab at GIPPR_SCALE and runs Lab.Grid over gippr-serve's
// six default policies plus one GIPPR under an explicit IPV, on the
// benchmark's four probe workloads. That is stream generation, L1/L2
// capture and one task per (policy, workload, phase) cell, each a
// one-policy cpu.MultiWindowReplay, as gippr-serve and gippr-sim run them
// (BenchmarkLabGrid times the same schedule at smoke scale). Metrics: ms/op
// and MB/op allocated.
func BenchmarkColdGrid(b *testing.B) {
	var specs []experiments.Spec
	for _, name := range []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"} {
		s, err := experiments.SpecFromRegistry(name)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, s)
	}
	specs = append(specs, experiments.SpecForIPV("GIPPR*", ipv.MidClimb(cache.L3Config.Ways)))
	var wls []workload.Workload
	for _, name := range []string{"mcf_like", "lbm_like", "sphinx3_like", "dealII_like"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		wls = append(wls, w)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				l := experiments.NewLab(experiments.ScaleFromEnv()).SetWorkers(workers)
				if _, err := l.Grid(context.Background(), specs, wls, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "MB/op")
		})
	}
}

// BenchmarkWarmIPV times the IPV-search loop as a warm served job runs it,
// the in-process twin of the benchmark's warm_ipv workload: one Lab at
// GIPPR_SCALE, its suite streams built before the timer, and per iteration
// one Lab.Grid of a GIPPR under a vector no earlier iteration used, over
// the whole suite, so every phase is one LLC replay and window model and
// nothing is a memo read. Metrics: ms/op and MB/op allocated, as in
// BenchmarkColdGrid.
func BenchmarkWarmIPV(b *testing.B) {
	ways := cache.L3Config.Ways
	rng := xrand.New(0x1f5)
	seen := map[string]bool{}
	next := func() ipv.Vector {
		for {
			v := ipv.New(ways)
			for j := range v {
				v[j] = rng.Intn(ways)
			}
			if !seen[v.String()] {
				seen[v.String()] = true
				return v
			}
		}
	}
	var l *experiments.Lab
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if l == nil {
				l = experiments.NewLab(experiments.ScaleFromEnv())
				if err := l.PrefetchStreamsCtx(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			l.SetWorkers(workers)
			var before, after runtime.MemStats
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				spec := experiments.SpecForIPV("GIPPR*", next())
				if _, err := l.Grid(context.Background(), []experiments.Spec{spec}, l.Suite(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "MB/op")
		})
	}
}

// BenchmarkGridMultiPass measures what the single-pass engine buys on a
// simulation-tool grid (gippr-sim's default policy suite over three
// workloads): the per-cell baseline regenerates and re-filters the phase
// stream for every (workload, policy) cell — the shape of the old grid —
// while the single-pass variant captures each phase once and replays every
// policy from that walk via cpu.MultiWindowReplay. Capture dwarfs a single
// policy's replay, so single-pass should run at least ~2x faster on this
// suite (and allocate roughly 1/len(policies) as much).
func BenchmarkGridMultiPass(b *testing.B) {
	const records = 60_000
	wlNames := []string{"mcf_like", "lbm_like", "sphinx3_like"}
	polNames := []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"}
	var wls []workload.Workload
	for _, n := range wlNames {
		w, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		wls = append(wls, w)
	}
	mks := make([]func(sets, ways int) cache.Policy, len(polNames))
	for i, n := range polNames {
		f, err := policy.Lookup(n)
		if err != nil {
			b.Fatal(err)
		}
		mks[i] = f.New
	}
	cfg := cache.L3Config
	capture := func(w workload.Workload, pi int) []trace.Record {
		sess, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h := sess.Hierarchy(policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
		h.RecordLLC = true
		h.ReserveLLC(records)
		src := &workload.Limit{Src: w.Phases[pi].Source(xrand.Mix(uint64(pi), 0x5eed)), N: records}
		h.Run(src)
		return h.LLCStream
	}
	b.Run("per-cell-capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range wls {
				for pi := range w.Phases {
					for _, mk := range mks {
						stream := capture(w, pi)
						cpu.WindowReplay(stream, cfg, mk(cfg.Sets(), cfg.Ways),
							len(stream)/3, cpu.DefaultWindowModel())
					}
				}
			}
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range wls {
				for pi := range w.Phases {
					stream := capture(w, pi)
					pols := make([]cache.Policy, len(mks))
					models := make([]*cpu.WindowModel, len(mks))
					for j, mk := range mks {
						pols[j] = mk(cfg.Sets(), cfg.Ways)
						models[j] = cpu.DefaultWindowModel()
					}
					cpu.MultiWindowReplay(stream, cfg, pols, len(stream)/3, models, nil)
				}
			}
		}
	})
}

// --- ablation benches (DESIGN.md section 4) ------------------------------

// thrashStream is the ablation workload: a cyclic loop at 1.4x LLC
// capacity, the regime where the design choices matter most.
func thrashStream(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 3, Addr: uint64(i%(90<<10)) * 64}
	}
	return recs
}

// BenchmarkAblationVectorCount compares 1-, 2-, 4- and 8-vector DGIPPR
// miss counts on the thrash workload (paper Section 3.5: "extending beyond
// four vectors yields diminishing returns" — 8 vectors should not improve
// meaningfully on the 4-vector tournament).
func BenchmarkAblationVectorCount(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(500_000)
	vecs := []ipv.Vector{
		ipv.PaperWI4DGIPPR[0], ipv.PaperWI4DGIPPR[1],
		ipv.PaperWI4DGIPPR[2], ipv.PaperWI4DGIPPR[3],
		ipv.PaperWIGIPPR, ipv.PaperWI2DGIPPR[0], ipv.LRU(16), ipv.LIP(16),
	}
	for _, n := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "1-vector", 2: "2-vector", 4: "4-vector", 8: "8-vector"}[n]
		b.Run(name, func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				pol := policy.NewDGIPPRN(cfg.Sets(), cfg.Ways, vecs[:n])
				rs := cache.ReplayStream(stream, cfg, pol, len(stream)/3)
				misses = rs.Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationLeaderSets sweeps the number of leader sets per vector
// in 4-DGIPPR (design decision 3: 32 leaders is the customary choice).
func BenchmarkAblationLeaderSets(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(500_000)
	for _, leaders := range []int{8, 16, 32, 64} {
		b.Run(map[int]string{8: "8", 16: "16", 32: "32", 64: "64"}[leaders], func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				pol := policy.NewDGIPPR4WithDuel(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR, leaders, 11)
				rs := cache.ReplayStream(stream, cfg, pol, len(stream)/3)
				misses = rs.Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationFullHierarchyVsReplay validates design decision 2: the
// LLC-stream replay must report the same LLC misses as a full-hierarchy
// re-simulation (L1/L2 are policy-independent). Metric: relative miss
// delta, which should be ~0.
func BenchmarkAblationFullHierarchyVsReplay(b *testing.B) {
	w, err := workload.ByName("sphinx3_like")
	if err != nil {
		b.Fatal(err)
	}
	var delta float64
	for i := 0; i < b.N; i++ {
		const records = 200_000
		mkHier := func(llc cache.Policy) *cache.Hierarchy {
			return cache.NewHierarchy(
				cache.New(cache.L1Config, policy.NewTrueLRU(cache.L1Config.Sets(), cache.L1Config.Ways)),
				cache.New(cache.L2Config, policy.NewTrueLRU(cache.L2Config.Sets(), cache.L2Config.Ways)),
				cache.New(cache.L3Config, llc),
			)
		}
		// Full hierarchy with DRRIP at the LLC.
		full := mkHier(policy.NewDRRIP(cache.L3Config.Sets(), cache.L3Config.Ways))
		src := &workload.Limit{Src: w.Phases[0].Source(9), N: records}
		full.Run(src)
		fullMisses := full.L3.Stats.Misses

		// Capture stream under LRU, then replay into DRRIP.
		capt := mkHier(policy.NewTrueLRU(cache.L3Config.Sets(), cache.L3Config.Ways))
		capt.RecordLLC = true
		src2 := &workload.Limit{Src: w.Phases[0].Source(9), N: records}
		capt.Run(src2)
		rs := cache.ReplayStream(capt.LLCStream, cache.L3Config,
			policy.NewDRRIP(cache.L3Config.Sets(), cache.L3Config.Ways), 0)
		delta = stats.Normalize(float64(rs.Misses), float64(fullMisses)) - 1
	}
	b.ReportMetric(delta, "relative-miss-delta")
}

// BenchmarkAblationWindowVsLinearModel compares the two timing models'
// speedup estimates for 4-DGIPPR over LRU on the thrash workload (design
// decision: the GA uses the cheap linear model; the figures use the window
// model).
func BenchmarkAblationWindowVsLinearModel(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(400_000)
	warm := len(stream) / 3
	var windowSpeedup, linearSpeedup float64
	for i := 0; i < b.N; i++ {
		lin := cpu.DefaultLinearModel()
		lruRS := cache.ReplayStream(stream, cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways), warm)
		d4RS := cache.ReplayStream(stream, cfg, policy.NewDGIPPR4(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR), warm)
		linearSpeedup = lin.CPIFromReplay(lruRS) / lin.CPIFromReplay(d4RS)

		lruW := cpu.WindowReplay(stream, cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways), warm, cpu.DefaultWindowModel())
		d4W := cpu.WindowReplay(stream, cfg, policy.NewDGIPPR4(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR), warm, cpu.DefaultWindowModel())
		windowSpeedup = lruW.CPI / d4W.CPI
	}
	b.ReportMetric(windowSpeedup, "window-speedup")
	b.ReportMetric(linearSpeedup, "linear-speedup")
}

// --- extension benches (paper Section 7 future work) ----------------------

// BenchmarkExtensionMulticore: 4-core shared-LLC throughput normalized to
// LRU on the memory-intensive mix.
func BenchmarkExtensionMulticore(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Multicore(lab())
	}
	b.ReportMetric(t.Value("intensive", "WI-4-DGIPPR"), "dgippr4-intensive")
	b.ReportMetric(t.Value("intensive", "DRRIP"), "drrip-intensive")
	b.ReportMetric(t.Value("friendly", "WI-4-DGIPPR"), "dgippr4-friendly")
}

// BenchmarkExtensionAssocSweep: GIPPR's normalized MPKI at 8 through 64
// ways (future-work item 6).
func BenchmarkExtensionAssocSweep(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AssocSweep(lab())
	}
	b.ReportMetric(t.Value("8-way", "GIPPR"), "gippr-8way")
	b.ReportMetric(t.Value("16-way", "GIPPR"), "gippr-16way")
	b.ReportMetric(t.Value("64-way", "GIPPR"), "gippr-64way")
}

// BenchmarkExtensionRRIPVSearch: exhaustive search of the 1024 RRIP
// transition vectors (future-work items 3 and 5).
func BenchmarkExtensionRRIPVSearch(b *testing.B) {
	var res experiments.RRIPVResult
	for i := 0; i < b.N; i++ {
		res = experiments.RRIPVSearch(lab())
	}
	b.ReportMetric(res.BestFitness, "best-hitrate")
	b.ReportMetric(res.HPFitness, "srrip-hp-hitrate")
}

// BenchmarkExtensionBypass: GIPPR+bypass versus plain GIPPR, geomean MPKI
// normalized to LRU (future-work item 1).
func BenchmarkExtensionBypass(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Bypass(lab())
	}
	b.ReportMetric(t.GeoMean("WI-GIPPR"), "gippr")
	b.ReportMetric(t.GeoMean("GIPPR+bypass"), "gippr-bypass")
}

// --- microbenchmarks of the simulation kernels ----------------------------

func microStream(n int) []trace.Record {
	rng := xrand.New(0xbe)
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 3, Addr: rng.Uint64n(200<<10) * 64, PC: rng.Uint64n(64) * 4}
	}
	return recs
}

func benchPolicy(b *testing.B, mk func(sets, ways int) cache.Policy) {
	cfg := cache.L3Config
	stream := microStream(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.ReplayStream(stream, cfg, mk(cfg.Sets(), cfg.Ways), 0)
	}
	reportPerRecord(b, len(stream))
}

// reportPerRecord reports the timed region's cost per stream record.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}

// hidePacked hides a policy's PackedIPV and PackedLanes methods, so a
// cache over it runs the Policy callbacks instead of the IPV step.
// SetTelemetry is re-exposed so a sink still reaches the wrapped policy.
type hidePacked struct{ cache.Policy }

func (h hidePacked) SetTelemetry(t *telemetry.Sink) {
	if ins, ok := h.Policy.(cache.Instrumented); ok {
		ins.SetTelemetry(t)
	}
}

// countFills is hidePacked with the wrapped policy's PackedIPV and
// PackedLanes answers kept, counting the OnFill calls its cache makes: the
// IPV step makes none.
type countFills struct {
	hidePacked
	fills *int
}

func (c countFills) OnFill(set uint32, way int, r trace.Record) {
	*c.fills++
	c.Policy.OnFill(set, way, r)
}

func (c countFills) PackedIPV() ([]int, plrutree.Trees, bool) {
	if pk, ok := c.Policy.(cache.Packable); ok {
		return pk.PackedIPV()
	}
	return nil, plrutree.Trees{}, false
}

func (c countFills) PackedLanes() ([]int, recency.Lanes, bool) {
	if pk, ok := c.Policy.(cache.PackableLanes); ok {
		return pk.PackedLanes()
	}
	return nil, recency.Lanes{}, false
}

// BenchmarkReplayStream measures the simulator's hot loop: one-vector
// GIPPR at the L3 geometry, modelled a block at a time with AccessBlock as
// cache.Replay drives it. The cache and policy are built outside the timed
// region. The step pair runs the cache's inline IPV step; the callbacks
// pair runs the same policy behind hidePacked, through the Policy
// interface — the path every policy without a packed form takes. Each pair
// pins the telemetry tax: with the sink disabled the only cost is a
// handful of nil checks, with a sink attached every hit, miss, eviction,
// fill and IPV move is recorded into fixed-size counters and histograms.
// The lru pair times exact LRU the same way, telemetry off: the step over
// its recency lanes against its callbacks. EXPERIMENTS.md records the
// measured ratios. All six variants must report 0 allocs/op.
func BenchmarkReplayStream(b *testing.B) {
	cfg := cache.L3Config
	stream := microStream(100_000)
	gippr := func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR) }
	lru := func() cache.Policy { return policy.NewTrueLRU(cfg.Sets(), cfg.Ways) }
	run := func(b *testing.B, mk func() cache.Policy, step bool, sink *telemetry.Sink) {
		var fills int
		pol := mk()
		if step {
			pol = countFills{hidePacked{pol}, &fills}
		} else {
			pol = hidePacked{pol}
		}
		c := cache.New(cfg, pol)
		if sink != nil {
			c.SetTelemetry(sink)
		}
		var hits cache.HitBits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(stream); off += cache.BlockSize {
				c.AccessBlock(stream[off:min(off+cache.BlockSize, len(stream))], &hits)
			}
		}
		reportPerRecord(b, len(stream))
		if fills != 0 {
			b.Fatalf("%s did not take the IPV step", pol.Name())
		}
	}
	b.Run("step/telemetry=off", func(b *testing.B) { run(b, gippr, true, nil) })
	b.Run("step/telemetry=on", func(b *testing.B) { run(b, gippr, true, &telemetry.Sink{}) })
	b.Run("callbacks/telemetry=off", func(b *testing.B) { run(b, gippr, false, nil) })
	b.Run("callbacks/telemetry=on", func(b *testing.B) { run(b, gippr, false, &telemetry.Sink{}) })
	b.Run("lru/step/telemetry=off", func(b *testing.B) { run(b, lru, true, nil) })
	b.Run("lru/callbacks/telemetry=off", func(b *testing.B) { run(b, lru, false, nil) })
}

// BenchmarkPolicy times one replay into the paper LLC per registry
// policy, one sub-benchmark per registry name (-bench 'BenchmarkPolicy/drrip$').
func BenchmarkPolicy(b *testing.B) {
	for _, name := range policy.Names() {
		f, _ := policy.Lookup(name)
		b.Run(name, func(b *testing.B) { benchPolicy(b, f.New) })
	}
}

func BenchmarkBeladyOptimal(b *testing.B) {
	b.ReportAllocs()
	stream := microStream(100_000)
	for i := 0; i < b.N; i++ {
		policy.Optimal(stream, cache.L3Config, 0)
	}
	reportPerRecord(b, len(stream))
}

// mcfPhase returns one generated phase of mcf_like at GIPPR_SCALE's phase
// length, and a function that captures its LLC stream through fresh LRU L1
// and L2 caches, as Lab.Streams does.
func mcfPhase(b *testing.B) ([]trace.Record, func() []trace.Record) {
	w, err := workload.ByName("mcf_like")
	if err != nil {
		b.Fatal(err)
	}
	recs := w.Phases[0].Records(1, experiments.ScaleFromEnv().PhaseRecords)
	lru := func(cfg cache.Config) *cache.Cache {
		return cache.New(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
	}
	return recs, func() []trace.Record {
		return cache.CaptureLLC(trace.NewSliceSource(recs), lru(cache.L1Config), lru(cache.L2Config), len(recs))
	}
}

// BenchmarkWindowModel measures the window model alone on the records of a
// real LLC stream: one captured phase of mcf_like at GIPPR_SCALE's phase
// length, with the hit bits one-vector GIPPR gives it. The capture and the
// replay that finds the hit bits run before the timer; the timed loop
// steps a hit with Step and a miss with StepMiss, so its cost follows the
// stream's mix of gaps and misses. Metric: ns per LLC record.
func BenchmarkWindowModel(b *testing.B) {
	_, capture := mcfPhase(b)
	llc := capture()
	cfg := cache.L3Config
	c := cache.New(cfg, policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR))
	hit := make([]bool, len(llc))
	var hits cache.HitBits
	for off := 0; off < len(llc); off += cache.BlockSize {
		blk := llc[off:min(off+cache.BlockSize, len(llc))]
		c.AccessBlock(blk, &hits)
		for j := range blk {
			hit[off+j] = hits.Bit(j)
		}
	}
	hitLat, missLat := cfg.HitLatency, cfg.HitLatency+cache.DRAMLatency
	m := cpu.DefaultWindowModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		for j, r := range llc {
			if hit[j] {
				m.Step(r.Gap, hitLat)
			} else {
				m.StepMiss(r.Gap, missLat)
			}
		}
	}
	reportPerRecord(b, len(llc))
}

func BenchmarkHierarchyAccess(b *testing.B) {
	b.ReportAllocs()
	sess, err := New(LLCConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := sess.Hierarchy(NewLRU(LLCConfig().Sets(), LLCConfig().Ways))
	stream := microStream(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(stream[i&(1<<16-1)])
	}
}

// BenchmarkCapture measures the capture walk Lab.Streams runs per phase:
// fresh LRU L1 and L2 and cache.CaptureLLC over one generated phase of
// mcf_like, at GIPPR_SCALE's phase length. Generation is outside the timed
// region. Metrics: ns per reference pushed in, and the share of references
// that reach the LLC.
func BenchmarkCapture(b *testing.B) {
	recs, capture := mcfPhase(b)
	var llc []trace.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc = capture()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/ref")
	b.ReportMetric(float64(len(llc))/float64(len(recs)), "llc/ref")
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	w, err := workload.ByName("mcf_like")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Phases[0].Source(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}
