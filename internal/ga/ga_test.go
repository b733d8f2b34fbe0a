package ga

import (
	"context"
	"errors"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

func gaConfig() cache.Config {
	return cache.Config{Name: "ga", SizeBytes: 64 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
}

func blocksToRecords(blocks []uint64) []trace.Record {
	recs := make([]trace.Record, len(blocks))
	for i, b := range blocks {
		recs[i] = trace.Record{Gap: 4, Addr: b * 64}
	}
	return recs
}

// thrashStream: cyclic loop at 1.5x capacity -> favours LRU-side insertion.
func thrashStream(n int) []trace.Record {
	cap := 64 * 16
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i % (cap * 3 / 2))
	}
	return blocksToRecords(blocks)
}

// friendlyStream: quick-reuse scan -> favours MRU-side insertion.
func friendlyStream(n int) []trace.Record {
	var blocks []uint64
	next := uint64(1 << 20)
	for len(blocks) < n {
		blocks = append(blocks, next)
		if next > (1<<20)+256 {
			blocks = append(blocks, next-256)
		}
		next++
	}
	return blocksToRecords(blocks[:n])
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := gaConfig()
	streams := []Stream{
		{Workload: "thrash", Weight: 1, Records: thrashStream(30000)},
		{Workload: "friendly", Weight: 1, Records: friendlyStream(30000)},
	}
	return NewEnv(cfg, cpu.DefaultLinearModel(), 1.0/3, streams,
		func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) },
		func(sets, ways int, v ipv.Vector) cache.Policy { return policy.NewGIPPR(sets, ways, v) },
	)
}

func TestFitnessLRUVectorNearOne(t *testing.T) {
	e := testEnv(t)
	// GIPPR with the all-zero vector is PLRU, which tracks LRU closely.
	f := e.Fitness(ipv.LRU(16))
	if f < 0.9 || f > 1.1 {
		t.Fatalf("PLRU-equivalent fitness = %v, want near 1", f)
	}
}

func TestFitnessLIPBeatsLRUOnThisMix(t *testing.T) {
	e := testEnv(t)
	lip := e.Fitness(ipv.LIP(16))
	lru := e.Fitness(ipv.LRU(16))
	if lip <= lru {
		t.Fatalf("LIP fitness %v not above LRU %v on a thrash-heavy mix", lip, lru)
	}
}

func TestPerStreamShape(t *testing.T) {
	e := testEnv(t)
	per := e.PerStream(ipv.LIP(16))
	if len(per) != 2 {
		t.Fatalf("PerStream returned %d values", len(per))
	}
	// LIP should win on the thrash stream and lose (or tie) on the
	// friendly one.
	if per[0] <= 1.0 {
		t.Fatalf("LIP speedup on thrash = %v", per[0])
	}
	if per[1] > 1.05 {
		t.Fatalf("LIP speedup on friendly quick-reuse = %v, expected <= ~1", per[1])
	}
}

func TestSubset(t *testing.T) {
	e := testEnv(t)
	sub := e.Subset(func(w string) bool { return w == "thrash" })
	if len(sub.Streams()) != 1 || sub.Streams()[0].Workload != "thrash" {
		t.Fatalf("subset wrong: %+v", sub.Streams())
	}
	// Fitness on the thrash-only env must rank LIP higher than the mixed
	// env does.
	if sub.Fitness(ipv.LIP(16)) <= e.Fitness(ipv.LIP(16)) {
		t.Fatal("thrash-only fitness should exceed mixed fitness for LIP")
	}
}

func TestSubsetPanicsOnEmpty(t *testing.T) {
	e := testEnv(t)
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	e.Subset(func(string) bool { return false })
}

func TestRandomSearchSortedAndSized(t *testing.T) {
	e := testEnv(t)
	res, err := RandomSearch(context.Background(), e, 20, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Fitness < res[i-1].Fitness {
			t.Fatal("results not sorted ascending")
		}
	}
	for _, s := range res {
		if err := s.Vector.Validate(); err != nil {
			t.Fatalf("random vector invalid: %v", err)
		}
	}
}

func TestRandomSearchDeterministic(t *testing.T) {
	e := testEnv(t)
	a, errA := RandomSearch(context.Background(), e, 5, 42, nil)
	b, errB := RandomSearch(context.Background(), e, 5, 42, nil)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Vector.Equal(b[i].Vector) || a[i].Fitness != b[i].Fitness {
			t.Fatal("random search not reproducible")
		}
	}
}

func TestEvolveImprovesOverSeeds(t *testing.T) {
	e := testEnv(t)
	cfg := Config{
		Population: 10, Generations: 4, Elite: 2, TournamentSize: 3,
		MutationProb: 0.05, Seed: 11,
		Seeds: []ipv.Vector{ipv.LRU(16)},
	}
	best, fit, hist, err := Evolve(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(); err != nil {
		t.Fatalf("evolved vector invalid: %v", err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length %d", len(hist))
	}
	// Elitism makes best fitness monotonically non-decreasing.
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1]-1e-12 {
			t.Fatalf("best fitness regressed: %v", hist)
		}
	}
	if fit < e.Fitness(ipv.LRU(16)) {
		t.Fatalf("GA final fitness %v below its LRU seed", fit)
	}
}

func TestEvolveCallsOnGeneration(t *testing.T) {
	e := testEnv(t)
	cfg := DefaultConfig(3)
	cfg.Population = 6
	cfg.Generations = 2
	calls := 0
	cfg.OnGeneration = func(gen int, best Scored) { calls++ }
	if _, _, _, err := Evolve(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnGeneration called %d times", calls)
	}
}

// TestEvolveValidatesConfig: a bad configuration is an error, returned
// before any fitness evaluation.
func TestEvolveValidatesConfig(t *testing.T) {
	e := testEnv(t)
	bad := []Config{
		{Population: 1, Generations: 1, TournamentSize: 1},
		{Population: 4, Generations: 0, TournamentSize: 1},
		{Population: 4, Generations: 1, Elite: 4, TournamentSize: 1},
		{Population: 4, Generations: 1, Elite: -1, TournamentSize: 1},
		{Population: 4, Generations: 1, TournamentSize: 0},
	}
	for i, c := range bad {
		best, _, hist, err := Evolve(context.Background(), e, c)
		if err == nil {
			t.Errorf("config %d (%+v) accepted", i, c)
		}
		if best != nil || hist != nil {
			t.Errorf("config %d: rejected run returned best %v, history %v", i, best, hist)
		}
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	rng := xrand.New(5)
	a, b := ipv.PaperWIGIPPR, ipv.LIP(16)
	for i := 0; i < 200; i++ {
		c := crossover(a, b, rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("crossover child invalid: %v", err)
		}
		// Every element comes from one of the parents at its position.
		for j := range c {
			if c[j] != a[j] && c[j] != b[j] {
				t.Fatalf("element %d from neither parent", j)
			}
		}
	}
}

func TestHillClimbNeverWorsens(t *testing.T) {
	e := testEnv(t)
	start := ipv.LRU(16)
	startFit := e.Fitness(start)
	refined, fit, err := HillClimb(context.Background(), e, start, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit < startFit {
		t.Fatalf("hill climb worsened: %v -> %v", startFit, fit)
	}
	if err := refined.Validate(); err != nil {
		t.Fatal(err)
	}
	// The input must not be mutated.
	if !start.Equal(ipv.LRU(16)) {
		t.Fatal("HillClimb mutated its input")
	}
}

func TestSelectComplementaryPrefersCoverage(t *testing.T) {
	e := testEnv(t)
	// Pool: LRU-like (wins friendly), LIP (wins thrash), and a mild
	// variant. A 2-set must include both specialists.
	pool := []ipv.Vector{ipv.LRU(16), ipv.LIP(16), ipv.MidClimb(16)}
	set, err := SelectComplementary(context.Background(), e, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("selected %d", len(set))
	}
	hasLRUish := false
	hasLIPish := false
	for _, v := range set {
		if v.Insertion() == 0 {
			hasLRUish = true
		}
		if v.Insertion() == 15 {
			hasLIPish = true
		}
	}
	if !hasLRUish || !hasLIPish {
		t.Fatalf("complementary set lacks a specialist: %v", set)
	}
}

func TestSelectComplementaryClampsToPool(t *testing.T) {
	e := testEnv(t)
	set, err := SelectComplementary(context.Background(), e, []ipv.Vector{ipv.LRU(16)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("selected %d from pool of 1", len(set))
	}
}

func TestNewEnvPanicsOnBadWarm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	NewEnv(gaConfig(), cpu.DefaultLinearModel(), 1.5, nil,
		func(s, w int) cache.Policy { return policy.NewTrueLRU(s, w) },
		func(s, w int, v ipv.Vector) cache.Policy { return policy.NewGIPPR(s, w, v) })
}
