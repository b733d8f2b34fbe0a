package cache_test

import (
	"fmt"
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/plrutree"
	"gippr/internal/policy"
	"gippr/internal/recency"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// scalarOnly hides a policy's PackedIPV and PackedLanes methods so a cache
// over it always runs the Policy callbacks — the reference side of every
// step-versus-callbacks comparison in this file. Interface embedding keeps
// only cache.Policy's method set; SetTelemetry is re-exposed explicitly so
// instrumented comparisons still reach the wrapped policy.
type scalarOnly struct{ cache.Policy }

func (s scalarOnly) SetTelemetry(t *telemetry.Sink) {
	if ins, ok := s.Policy.(cache.Instrumented); ok {
		ins.SetTelemetry(t)
	}
}

// counted wraps a policy, keeps its PackedIPV and PackedLanes answers,
// and counts the OnFill calls the cache makes. A cache over it therefore
// takes the IPV step exactly when it would over the bare policy, and the
// step calls no callback: no fills after a replay with misses means the
// step modelled it all.
type counted struct {
	scalarOnly
	fills *int
}

func (c counted) OnFill(set uint32, way int, r trace.Record) {
	*c.fills++
	c.Policy.OnFill(set, way, r)
}

func (c counted) PackedIPV() ([]int, plrutree.Trees, bool) {
	if pk, ok := c.Policy.(cache.Packable); ok {
		return pk.PackedIPV()
	}
	return nil, plrutree.Trees{}, false
}

func (c counted) PackedLanes() ([]int, recency.Lanes, bool) {
	if pk, ok := c.Policy.(cache.PackableLanes); ok {
		return pk.PackedLanes()
	}
	return nil, recency.Lanes{}, false
}

// countedBypass is counted for a Bypasser, which it stays.
type countedBypass struct{ counted }

func (c countedBypass) ShouldBypass(set uint32, r trace.Record) bool {
	return c.Policy.(cache.Bypasser).ShouldBypass(set, r)
}

// count wraps pol in counted (countedBypass for a Bypasser) over fills.
func count(pol cache.Policy, fills *int) cache.Policy {
	c := counted{scalarOnly{pol}, fills}
	if _, ok := pol.(cache.Bypasser); ok {
		return countedBypass{c}
	}
	return c
}

// stepRuns reports whether a cache of cfg over pol takes the IPV step. It
// models one access to set 0 of cfg without sampling: a cold miss, which
// calls OnFill unless the step runs. cache.New chooses the step whatever
// cfg samples, while a sample may leave set 0 out and skip the access.
func stepRuns(cfg cache.Config, pol cache.Policy) bool {
	cfg.SampleShift = 0
	var fills int
	cache.New(cfg, count(pol, &fills)).Access(trace.Record{Gap: 1})
	return fills == 0
}

// makeStream generates a seeded synthetic LLC stream: addresses drawn from a
// footprint of roughly spread x the cache's block capacity (so the replay
// sees hits, cold fills, evictions and writebacks), ~1/4 writes, small gaps.
func makeStream(n int, cfg cache.Config, spread float64, seed uint64) []trace.Record {
	rng := xrand.New(seed)
	blocks := uint64(float64(cfg.Sets()*cfg.Ways)*spread) + 1
	recs := make([]trace.Record, n)
	for i := range recs {
		b := rng.Uint64() % blocks
		recs[i] = trace.Record{
			Addr:  b * uint64(cfg.BlockBytes),
			PC:    rng.Uint64(),
			Gap:   uint32(rng.Intn(8)) + 1,
			Write: rng.Intn(4) == 0,
		}
	}
	return recs
}

// runScalar is the per-record reference: a Cache over pol driven one
// Access at a time, exposing the full Stats struct (ReplayStats drops
// evictions, writes, writebacks and skips) — the step must match every
// counter, not just the hit/miss triple.
func runScalar(stream []trace.Record, cfg cache.Config, pol cache.Policy, warm int, tel *telemetry.Sink) cache.Stats {
	c := cache.New(cfg, pol)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	warm = min(warm, len(stream))
	for _, r := range stream[:warm] {
		c.Access(r)
	}
	c.ResetStats()
	for _, r := range stream[warm:] {
		c.Access(r)
	}
	return c.Stats
}

// runStep replays stream through a cache over pol with cache.Replay,
// failing the test unless the IPV step modelled every access.
func runStep(t testing.TB, stream []trace.Record, cfg cache.Config, pol cache.Policy, warm int, tel *telemetry.Sink) cache.Stats {
	t.Helper()
	var fills int
	c := cache.New(cfg, count(pol, &fills))
	if tel != nil {
		c.SetTelemetry(tel)
	}
	cache.Replay(stream, warm, c, nil)
	if fills != 0 {
		t.Fatalf("%s: the IPV step did not run (%d policy fills)", cfg.Name, fills)
	}
	return c.Stats
}

// treesOf returns a one-vector GIPPR's trees, the state the step and the
// callbacks both update in place.
func treesOf(p *policy.GIPPR) plrutree.Trees {
	_, trees, _ := p.PackedIPV()
	return trees
}

// sameTrees fails unless a and b hold the same word in every set.
func sameTrees(t *testing.T, what string, a, b plrutree.Trees) {
	t.Helper()
	for set := uint32(0); set < uint32(a.Sets()); set++ {
		if fw, sw := a.Word(set), b.Word(set); fw != sw {
			t.Fatalf("%s: set %d tree state %#x != callbacks' %#x", what, set, fw, sw)
		}
	}
}

// lanesOf returns a one-vector GIPLR's recency lanes, the state the step
// and the callbacks both move in place.
func lanesOf(p *policy.GIPLR) recency.Lanes {
	_, lanes, _ := p.PackedLanes()
	return lanes
}

// sameLanes fails unless a and b hold the same position for every way of
// every set.
func sameLanes(t testing.TB, what string, a, b recency.Lanes) {
	t.Helper()
	for set := uint32(0); set < uint32(a.Sets()); set++ {
		for w := 0; w < a.Ways(); w++ {
			if fp, sp := a.Position(set, w), b.Position(set, w); fp != sp {
				t.Fatalf("%s: set %d way %d at position %d, callbacks' %d", what, set, w, fp, sp)
			}
		}
	}
}

// matchReplays replays stream through a cache over fast on the IPV step
// and through one over slow on the callbacks, telemetry on, and fails
// unless every stat counter and the two sinks agree.
func matchReplays(t testing.TB, what string, stream []trace.Record, cfg cache.Config, fast, slow cache.Policy, warm int) {
	t.Helper()
	var fastSink, slowSink telemetry.Sink
	fastStats := runStep(t, stream, cfg, fast, warm, &fastSink)
	slowStats := runScalar(stream, cfg, scalarOnly{slow}, warm, &slowSink)
	if fastStats != slowStats {
		t.Errorf("%s: step stats %+v != callbacks %+v", what, fastStats, slowStats)
	}
	if !reflect.DeepEqual(&fastSink, &slowSink) {
		t.Errorf("%s: telemetry sinks diverge", what)
	}
}

// replayInclusive drives stream through a MakeInclusive hierarchy whose
// last level has cfg and runs llc, over two small levels whose policies
// inner builds, and returns the three levels' counters. tel is attached to
// the last level.
func replayInclusive(stream []trace.Record, cfg cache.Config, llc cache.Policy,
	inner func(sets, ways int) cache.Policy, tel *telemetry.Sink) [3]cache.Stats {
	l1 := cache.Config{Name: "L1", SizeBytes: 2 * 4 * 64, Ways: 4, BlockBytes: 64}
	l2 := cache.Config{Name: "L2", SizeBytes: 4 * 8 * 64, Ways: 8, BlockBytes: 64}
	h := cache.NewHierarchy(cache.New(l1, inner(l1.Sets(), l1.Ways)),
		cache.New(l2, inner(l2.Sets(), l2.Ways)), cache.New(cfg, llc))
	h.MakeInclusive()
	h.L3.SetTelemetry(tel)
	for _, r := range stream {
		h.Access(r)
	}
	return [3]cache.Stats{h.L1.Stats, h.L2.Stats, h.L3.Stats}
}

// matchInclusive runs stream through two MakeInclusive hierarchies with
// last-level geometry cfg over LRU inner levels: one with fast and every
// level on the IPV step, one with slow and every level on the callbacks.
// The last level's evictions back-invalidate inner ways that the step
// later refills from their old positions. It fails if the first hierarchy
// calls any policy's OnFill, or if any level's counters or the last
// level's telemetry differ between the two.
func matchInclusive(t testing.TB, what string, stream []trace.Record, cfg cache.Config, fast, slow cache.Policy) {
	t.Helper()
	var fills int
	var fastSink, slowSink telemetry.Sink
	got := replayInclusive(stream, cfg, count(fast, &fills), func(sets, ways int) cache.Policy {
		return count(policy.NewTrueLRU(sets, ways), &fills)
	}, &fastSink)
	want := replayInclusive(stream, cfg, scalarOnly{slow}, func(sets, ways int) cache.Policy {
		return scalarOnly{policy.NewTrueLRU(sets, ways)}
	}, &slowSink)
	if fills != 0 {
		t.Fatalf("%s inclusive: the IPV step did not run (%d policy fills)", what, fills)
	}
	if got != want {
		t.Errorf("%s inclusive: step stats %+v != callbacks %+v", what, got, want)
	}
	if !reflect.DeepEqual(&fastSink, &slowSink) {
		t.Errorf("%s inclusive: telemetry sinks diverge", what)
	}
}

// stepConfigs is the geometry grid the equivalence tests sweep: every
// tree-PLRU associativity, set counts from the degenerate single set up,
// and a sampled variant.
func stepConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, ways := range []int{2, 4, 8, 16, 32, 64} {
		for _, sets := range []int{1, 4, 16} {
			cfgs = append(cfgs, cache.Config{
				Name:      fmt.Sprintf("k%dx%d", sets, ways),
				SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 30,
			})
		}
	}
	cfgs = append(cfgs, cache.Config{
		Name:      "sampled",
		SizeBytes: 64 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30, SampleShift: 2,
	})
	return cfgs
}

// vectorsFor returns the IPVs each geometry is checked under: PLRU's
// all-zero vector, LIP's insert-at-LRU, the paper's mid-climb example, and
// two seeded random vectors.
func vectorsFor(ways int, rng *xrand.RNG) []ipv.Vector {
	vecs := []ipv.Vector{ipv.LRU(ways), ipv.LIP(ways), ipv.MidClimb(ways)}
	for i := 0; i < 2; i++ {
		v := ipv.New(ways)
		for j := range v {
			v[j] = rng.Intn(ways)
		}
		vecs = append(vecs, v)
	}
	return vecs
}

// giplrVectors returns the IPVs the step over exact LRU is checked under:
// LRU's all-zero vector, LIP's insert-at-LRU, the registry's multi-step
// LRU, and a seeded random vector.
func giplrVectors(ways int, rng *xrand.RNG) []ipv.Vector {
	v := ipv.New(ways)
	for j := range v {
		v[j] = rng.Intn(ways)
	}
	return []ipv.Vector{ipv.LRU(ways), ipv.LIP(ways), ipv.MultiStep(ways, policy.DefaultMSLRUStep(ways)), v}
}

// TestKernelMatchesScalarAcrossGeometries is the step's differential
// battery: for every geometry x vector x warm fraction, a cache.Replay
// through the IPV step and a per-record replay through the policy's
// callbacks must agree on every stat counter, produce DeepEqual telemetry
// sinks (which pins the event sequence wherever the sink's access clock
// can see it), and leave the two policy objects' trees (GIPPR) or lanes
// (GIPLR) in identical states. Each GIPLR geometry and vector also runs as
// the last level of a MakeInclusive hierarchy.
func TestKernelMatchesScalarAcrossGeometries(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	rng := xrand.New(0xBA7C4)
	lrng := xrand.New(0x61B1)
	for _, cfg := range stepConfigs() {
		for vi, vec := range vectorsFor(cfg.Ways, rng) {
			for _, warm := range []int{0, n / 3} {
				fast := policy.NewGIPPR(cfg.Sets(), cfg.Ways, vec)
				slow := policy.NewGIPPR(cfg.Sets(), cfg.Ways, vec)
				stream := makeStream(n, cfg, 2.5, 0xF00D+uint64(vi))
				what := fmt.Sprintf("%s vec %d warm %d", cfg.Name, vi, warm)
				matchReplays(t, what, stream, cfg, fast, slow, warm)
				sameTrees(t, what, treesOf(fast), treesOf(slow))
			}
		}
		for vi, vec := range giplrVectors(cfg.Ways, lrng) {
			stream := makeStream(n, cfg, 2.5, 0x61B1+uint64(vi))
			for _, warm := range []int{0, n / 3} {
				fast := policy.NewGIPLR(cfg.Sets(), cfg.Ways, vec)
				slow := policy.NewGIPLR(cfg.Sets(), cfg.Ways, vec)
				what := fmt.Sprintf("%s GIPLR vec %d warm %d", cfg.Name, vi, warm)
				matchReplays(t, what, stream, cfg, fast, slow, warm)
				sameLanes(t, what, lanesOf(fast), lanesOf(slow))
			}
			fast := policy.NewGIPLR(cfg.Sets(), cfg.Ways, vec)
			slow := policy.NewGIPLR(cfg.Sets(), cfg.Ways, vec)
			what := fmt.Sprintf("%s GIPLR vec %d", cfg.Name, vi)
			matchInclusive(t, what, stream, cfg, fast, slow)
			sameLanes(t, what+" inclusive", lanesOf(fast), lanesOf(slow))
		}
	}
}

// TestDispatchedReplayStreamMatchesScalar checks the public entry point:
// cache.ReplayStreamTel with a packable policy (the step) against the same
// call with the policy wrapped scalarOnly, for PLRU, GIPPR and LRU.
func TestDispatchedReplayStreamMatchesScalar(t *testing.T) {
	cfg := cache.Config{Name: "d", SizeBytes: 32 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(30_000, cfg, 3, 0xD15)
	warm := len(stream) / 4
	makers := map[string]func() cache.Policy{
		"plru":  func() cache.Policy { return policy.NewPLRU(cfg.Sets(), cfg.Ways) },
		"gippr": func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.MidClimb(cfg.Ways)) },
		"lru":   func() cache.Policy { return policy.NewTrueLRU(cfg.Sets(), cfg.Ways) },
	}
	for name, mk := range makers {
		var fastSink, slowSink telemetry.Sink
		fast := cache.ReplayStreamTel(stream, cfg, mk(), warm, &fastSink)
		slow := cache.ReplayStreamTel(stream, cfg, scalarOnly{mk()}, warm, &slowSink)
		if fast != slow {
			t.Errorf("%s: step %+v != callbacks %+v", name, fast, slow)
		}
		if !reflect.DeepEqual(&fastSink, &slowSink) {
			t.Errorf("%s: telemetry sinks diverge", name)
		}
	}
}

// TestKernelSeedsFromPolicyState replays through a policy whose trees were
// moved before the replay: the step must start from that state and leave
// its final state in the policy, matching the callbacks bit for bit. This
// is the reuse case of a policy replayed more than once.
func TestKernelSeedsFromPolicyState(t *testing.T) {
	cfg := cache.Config{Name: "s", SizeBytes: 8 * 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 30}
	rng := xrand.New(0x5EED)
	fast := policy.NewPLRU(cfg.Sets(), cfg.Ways)
	slow := policy.NewPLRU(cfg.Sets(), cfg.Ways)
	ft, st := treesOf(fast), treesOf(slow)
	for i := 0; i < 4*cfg.Sets()*cfg.Ways; i++ {
		set, w, x := uint32(rng.Intn(cfg.Sets())), rng.Intn(cfg.Ways), rng.Intn(cfg.Ways)
		ft.SetPosition(set, w, x)
		st.SetPosition(set, w, x)
	}
	stream := makeStream(5_000, cfg, 2, 0x5EED2)
	fastRes := cache.ReplayStream(stream, cfg, fast, 100)
	slowRes := cache.ReplayStream(stream, cfg, scalarOnly{slow}, 100)
	if fastRes != slowRes {
		t.Fatalf("seeded replay: step %+v != callbacks %+v", fastRes, slowRes)
	}
	sameTrees(t, "seeded replay", ft, st)
}

// TestDispatchFallsBackForNonPackable pins who takes which path: PLRU,
// one-vector GIPPR and the one-vector GIPLRs (LRU, LIP, multi-step LRU)
// must take the IPV step, while duelling DGIPPR and DGIPLR, DIP, PIPP-dyn
// and GIPPR+bypass (packable through its embedded GIPPR, but a Bypasser)
// must run the callbacks, as must a packable policy whose trees or lanes do
// not have the cache's sets and ways, and exact LRU past 64 ways.
func TestDispatchFallsBackForNonPackable(t *testing.T) {
	cfg := cache.Config{Name: "f", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	sets, ways := cfg.Sets(), cfg.Ways
	vecs := [2]ipv.Vector{ipv.LRU(ways), ipv.LIP(ways)}
	for _, tc := range []struct {
		name string
		pol  cache.Policy
		want bool
	}{
		{"plru", policy.NewPLRU(sets, ways), true},
		{"gippr", policy.NewGIPPR(sets, ways, ipv.LIP(ways)), true},
		{"lru", policy.NewTrueLRU(sets, ways), true},
		{"lip", policy.NewLIP(sets, ways), true},
		{"mslru", policy.NewMSLRU(sets, ways, 4), true},
		{"giplr", policy.NewGIPLR(sets, ways, ipv.MidClimb(ways)), true},
		{"dgippr2", policy.NewDGIPPR2(sets, ways, vecs), false},
		{"dgiplr2", policy.NewDGIPLR2(sets, ways, vecs), false},
		{"dip", policy.NewDIP(sets, ways), false},
		{"pipp-dyn", policy.NewPIPPDyn(sets, ways, 4), false},
		{"gippr+bypass", policy.NewBypassGIPPR(sets, ways, ipv.LIP(ways)), false},
		{"fewer ways", policy.NewGIPPR(sets, 8, ipv.LRU(8)), false},
		{"more sets", policy.NewPLRU(2*sets, ways), false},
		{"lru fewer ways", policy.NewTrueLRU(sets, 8), false},
		{"lru more sets", policy.NewTrueLRU(2*sets, ways), false},
	} {
		if got := stepRuns(cfg, tc.pol); got != tc.want {
			t.Errorf("%s: step ran = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Past 64 ways a set's valid and dirty bits span two words, which the
	// step does not model.
	wide := cache.Config{Name: "w", SizeBytes: 4 * 65 * 64, Ways: 65, BlockBytes: 64, HitLatency: 30}
	if stepRuns(wide, policy.NewTrueLRU(wide.Sets(), wide.Ways)) {
		t.Error("65-way LRU took the IPV step")
	}
	// Sampling does not choose the path: a sampled DRRIP runs the callbacks
	// although its sample leaves out set 0.
	sampled := cfg
	sampled.SampleShift = 1
	if stepRuns(sampled, policy.NewDRRIP(sets, ways)) {
		t.Error("sampled DRRIP took the IPV step")
	}
	// The wrapper the references use must defeat the step.
	if stepRuns(cfg, scalarOnly{policy.NewPLRU(sets, ways)}) {
		t.Error("scalarOnly PLRU took the IPV step")
	}
	if stepRuns(cfg, scalarOnly{policy.NewTrueLRU(sets, ways)}) {
		t.Error("scalarOnly LRU took the IPV step")
	}
}

// TestHitBits covers the bitmap accessor across word boundaries.
func TestHitBits(t *testing.T) {
	var h cache.HitBits
	for _, i := range []int{0, 1, 63, 64, 130, cache.BlockSize - 1} {
		if h.Bit(i) {
			t.Fatalf("bit %d set in zero bitmap", i)
		}
		h[i>>6] |= 1 << (i & 63)
		if !h.Bit(i) {
			t.Fatalf("bit %d not visible after set", i)
		}
	}
}

// TestAccessBlockZeroAllocs is the steady-state allocation gate of the
// step: once the cache is built (and telemetry attached), block processing
// must not allocate — with or without a sink.
func TestAccessBlockZeroAllocs(t *testing.T) {
	cfg := cache.Config{Name: "a", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(cache.BlockSize, cfg, 2, 0xA110C)
	for _, sink := range []*telemetry.Sink{nil, {}} {
		withTel := sink != nil
		var fills int
		c := cache.New(cfg, count(policy.NewPLRU(cfg.Sets(), cfg.Ways), &fills))
		if sink != nil {
			c.SetTelemetry(sink)
		}
		var hits cache.HitBits
		c.AccessBlock(stream, &hits) // settle one block before measuring
		allocs := testing.AllocsPerRun(100, func() {
			c.AccessBlock(stream, &hits)
		})
		if allocs != 0 {
			t.Errorf("telemetry=%v: AccessBlock allocates %v per block, want 0", withTel, allocs)
		}
		if fills != 0 {
			t.Fatalf("telemetry=%v: the IPV step did not run", withTel)
		}
	}
}

// TestReplayWarmBeyondStream mirrors cache.ReplayStream's clamp: warming
// past the end measures nothing and must not panic.
func TestReplayWarmBeyondStream(t *testing.T) {
	cfg := cache.Config{Name: "w", SizeBytes: 4 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	res := cache.ReplayStream(makeStream(10, cfg, 2, 1), cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways), 100)
	if res.Accesses != 0 || res.Instructions != 0 {
		t.Fatalf("over-warm replay measured %+v", res)
	}
}

// TestSampledKernelSkips checks the sampling path end to end: a sampled
// geometry must skip out-of-sample sets on the step exactly as the
// callbacks path does, with Skipped accounted and in-sample counters
// matching.
func TestSampledKernelSkips(t *testing.T) {
	cfg := cache.Config{Name: "sp", SizeBytes: 64 * 16 * 64, Ways: 16, BlockBytes: 64,
		HitLatency: 30, SampleShift: 2}
	stream := makeStream(20_000, cfg, 2, 0x5A)
	res := runStep(t, stream, cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways), 500, nil)
	slow := runScalar(stream, cfg, scalarOnly{policy.NewPLRU(cfg.Sets(), cfg.Ways)}, 500, nil)
	if res != slow {
		t.Fatalf("sampled step stats %+v != callbacks %+v", res, slow)
	}
	if res.Skipped == 0 {
		t.Fatal("sampling skipped nothing; test is vacuous")
	}
}
