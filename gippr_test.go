package gippr

import (
	"sync"
	"sync/atomic"
	"testing"

	"gippr/internal/experiments"
	"gippr/internal/policy"
	"gippr/internal/trace"
)

func TestConfigsExposeGeometry(t *testing.T) {
	if LLCConfig().Sets() != 4096 || LLCConfig().Ways != 16 {
		t.Fatal("LLC geometry wrong")
	}
	if L1Config().SizeBytes != 32<<10 || L2Config().SizeBytes != 256<<10 {
		t.Fatal("L1/L2 geometry wrong")
	}
}

func TestVectorHelpers(t *testing.T) {
	if !LRUVector(16).IsLRU() {
		t.Fatal("LRUVector")
	}
	if LIPVector(16).Insertion() != 15 {
		t.Fatal("LIPVector")
	}
	v, err := ParseIPV("[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(PaperGIPLR) {
		t.Fatal("ParseIPV round trip")
	}
}

func TestAllPolicyConstructors(t *testing.T) {
	sets, ways := 64, 16
	policies := []Policy{
		NewLRU(sets, ways), NewPLRU(sets, ways), NewRandom(sets, ways),
		NewFIFO(sets, ways), NewNRU(sets, ways), NewLIP(sets, ways),
		NewBIP(sets, ways), NewDIP(sets, ways), NewSRRIP(sets, ways),
		NewBRRIP(sets, ways), NewDRRIP(sets, ways), NewPDP(sets, ways),
		NewSHiP(sets, ways), NewGIPLR(sets, ways, PaperGIPLR),
		NewGIPPR(sets, ways, PaperWIGIPPR),
		NewDGIPPR2(sets, ways, PaperWI2DGIPPR),
		NewDGIPPR4(sets, ways, PaperWI4DGIPPR),
	}
	cfg := CacheConfig{Name: "t", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
	for _, p := range policies {
		c := NewCache(cfg, p)
		for b := uint64(0); b < 5000; b++ {
			c.Access(Record{Gap: 1, Addr: (b % 2048) * 64})
		}
		if c.Stats.Accesses != 5000 {
			t.Fatalf("%s: accesses %d", p.Name(), c.Stats.Accesses)
		}
	}
}

// The paper's default hierarchy, built through the v1 entry point: LRU
// L1/L2 with 4-DGIPPR at the LLC.
func TestDefaultHierarchyEndToEnd(t *testing.T) {
	sess, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sess.Config()
	h := sess.Hierarchy(NewDGIPPR4(cfg.Sets(), cfg.Ways, PaperWI4DGIPPR))
	w, err := WorkloadByName("lbm_like")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Phases[0].Source(1)
	for i := 0; i < 50_000; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		h.Access(rec)
	}
	if h.L1.Stats.Accesses != 50_000 {
		t.Fatalf("L1 accesses %d", h.L1.Stats.Accesses)
	}
	if h.L3.Stats.Accesses == 0 {
		t.Fatal("nothing reached the LLC")
	}
	if h.Instructions == 0 {
		t.Fatal("no instructions counted")
	}
}

func TestWorkloadsComplete(t *testing.T) {
	ws := Workloads()
	if len(ws) != 29 {
		t.Fatalf("%d workloads", len(ws))
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestOptimalAndReplayAgreeOnAccessCounts(t *testing.T) {
	w, _ := WorkloadByName("milc_like")
	sess, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy(NewLRU(LLCConfig().Sets(), LLCConfig().Ways))
	h.RecordLLC = true
	src := w.Phases[0].Source(3)
	for i := 0; i < 60_000; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		h.Access(rec)
	}
	stream := h.LLCStream
	warm := len(stream) / 3
	lru := ReplayStream(stream, LLCConfig(), NewLRU(LLCConfig().Sets(), LLCConfig().Ways), warm)
	min := OptimalMisses(stream, LLCConfig(), warm)
	if lru.Accesses != min.Accesses || lru.Instructions != min.Instructions {
		t.Fatalf("accounting mismatch: %+v vs %+v", lru, min)
	}
	if min.Misses > lru.Misses {
		t.Fatalf("MIN misses %d above LRU %d", min.Misses, lru.Misses)
	}
}

func TestEvolveThroughFacade(t *testing.T) {
	// A tiny end-to-end GA run through the public API.
	recs := make([]trace.Record, 20_000)
	for i := range recs {
		recs[i] = Record{Gap: 3, Addr: uint64(i%(96<<10)) * 64}
	}
	sess, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := sess.EvolveEnv(1.0/3, []EvolveStream{
		{Workload: "thrash", Weight: 1, Records: recs},
	})
	cfg := DefaultEvolveConfig(1)
	cfg.Population = 6
	cfg.Generations = 2
	cfg.Seeds = []IPV{LIPVector(16)}
	best, fit, hist := Evolve(env, cfg)
	if err := best.Validate(); err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || len(hist) != 2 {
		t.Fatalf("fit %v hist %v", fit, hist)
	}
}

// TestLabConcurrentMPKIMemoizedOnce is the regression test for the Lab
// memoization race: two goroutines asking for the same (spec, workload) cell
// must share one replay per phase, not duplicate it. The policy constructor
// count is the observable — before the singleflight fix, a concurrent miss
// ran the expensive replay (and thus the constructor) once per caller.
func TestLabConcurrentMPKIMemoizedOnce(t *testing.T) {
	lab := experiments.NewLab(experiments.Smoke)
	w, err := WorkloadByName("mcf_like")
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int32
	spec := experiments.Spec{Key: "counted", Label: "counted",
		New: func(_ string, sets, ways int) Policy {
			built.Add(1)
			return policy.NewTrueLRU(sets, ways)
		}}

	var wg sync.WaitGroup
	res := make([]float64, 2)
	start := make(chan struct{})
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res[i] = lab.MPKI(spec, w)
		}(i)
	}
	close(start)
	wg.Wait()

	if res[0] != res[1] {
		t.Fatalf("concurrent MPKI calls disagree: %v vs %v", res[0], res[1])
	}
	if got, want := built.Load(), int32(len(w.Phases)); got != want {
		t.Fatalf("policy constructed %d times for %d phases: replay duplicated", got, want)
	}
	// A later call must hit the memo without any further replay.
	lab.MPKI(spec, w)
	if built.Load() != int32(len(w.Phases)) {
		t.Fatal("memoized entry not reused")
	}
}

func TestWindowModelFacade(t *testing.T) {
	m := NewWindowModel()
	m.Step(10, 30)
	m.StepMiss(10, 230)
	if m.Cycles() <= 0 || m.Instructions() != 20 {
		t.Fatalf("cycles %v instrs %d", m.Cycles(), m.Instructions())
	}
}

func TestMulticoreFacade(t *testing.T) {
	w, _ := WorkloadByName("gobmk_like")
	sys := NewMulticore(NewDRRIP(LLCConfig().Sets(), LLCConfig().Ways), []Source{
		w.Phases[0].Source(1),
		w.Phases[0].Source(2),
	})
	sys.Run(10_000)
	res := sys.Results()
	if len(res.PerCore) != 2 || res.Throughput <= 0 {
		t.Fatalf("multicore facade result %+v", res)
	}
}

func TestExtensionPolicyFacades(t *testing.T) {
	sets, ways := 64, 16
	cfg := CacheConfig{Name: "x", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
	for _, p := range []Policy{
		NewRRIPV(sets, ways, RRIPVector{Promote: [4]uint8{0, 0, 1, 2}, Insert: 2}),
		NewBypassGIPPR(sets, ways, PaperWIGIPPR),
	} {
		c := NewCache(cfg, p)
		for b := uint64(0); b < 4000; b++ {
			c.Access(Record{Gap: 1, Addr: (b % 1500) * 64, PC: 0x1000 + (b%5)*4})
		}
		if c.Stats.Accesses != 4000 {
			t.Fatalf("%s: %d accesses", p.Name(), c.Stats.Accesses)
		}
	}
}

func TestAnnealFacade(t *testing.T) {
	recs := make([]trace.Record, 15_000)
	for i := range recs {
		recs[i] = Record{Gap: 3, Addr: uint64(i%(96<<10)) * 64}
	}
	sess, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := sess.EvolveEnv(1.0/3, []EvolveStream{{Workload: "t", Weight: 1, Records: recs}})
	cfg := DefaultAnnealConfig(2)
	cfg.Steps = 15
	best, fit := Anneal(env, LIPVector(16), cfg)
	if err := best.Validate(); err != nil || fit <= 0 {
		t.Fatalf("anneal facade: %v %v", err, fit)
	}
}
