package batchreplay_test

import (
	"fmt"
	"reflect"
	"testing"

	"gippr/internal/batchreplay"
	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/plrutree"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// scalarOnly hides a policy's PackedIPV method so replays through it always
// take the scalar Cache.Access path — the reference side of every
// kernel-vs-scalar comparison in this package. Interface embedding keeps
// only cache.Policy's method set; SetTelemetry is re-exposed explicitly so
// instrumented comparisons still reach the wrapped policy.
type scalarOnly struct{ cache.Policy }

func (s scalarOnly) SetTelemetry(t *telemetry.Sink) {
	if ins, ok := s.Policy.(cache.Instrumented); ok {
		ins.SetTelemetry(t)
	}
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

// runScalar is the per-record reference: a direct Cache driven one Access
// at a time, exposing the full Stats struct (ReplayStats drops
// evictions/writes/writebacks/skipped) — the kernel must match every
// counter, not just the hit/miss triple.
func runScalar(stream []trace.Record, cfg cache.Config, pol cache.Policy, warm int, tel *telemetry.Sink) cache.Stats {
	c := cache.New(cfg, pol)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	if warm > len(stream) {
		warm = len(stream)
	}
	for _, r := range stream[:warm] {
		c.Access(r)
	}
	c.ResetStats()
	for _, r := range stream[warm:] {
		c.Access(r)
	}
	return c.Stats
}

// treesOf returns a one-vector GIPPR's trees, the state the kernel and the
// scalar path both update in place.
func treesOf(p *policy.GIPPR) plrutree.Trees {
	_, trees, _ := p.PackedIPV()
	return trees
}

// sameTrees fails unless a and b hold the same word in every set.
func sameTrees(t *testing.T, what string, a, b plrutree.Trees) {
	t.Helper()
	for set := uint32(0); set < uint32(a.Sets()); set++ {
		if fw, sw := a.Word(set), b.Word(set); fw != sw {
			t.Fatalf("%s: set %d tree state %#x != scalar %#x", what, set, fw, sw)
		}
	}
}

// kernelEngine builds the engine cache.NewEngine picks for (cfg, pol, tel)
// and fails the test unless it is the batched kernel.
func kernelEngine(t *testing.T, cfg cache.Config, pol cache.Policy, tel *telemetry.Sink) cache.Engine {
	t.Helper()
	e := cache.NewEngine(cfg, pol, tel)
	if _, scalar := e.(*cache.Cache); scalar {
		t.Fatalf("%s: fast path did not engage", cfg.Name)
	}
	return e
}

// kernelConfigs is the geometry grid the equivalence tests sweep: every
// supported associativity, set counts from the degenerate single set up,
// and a sampled variant.
func kernelConfigs() []cache.Config {
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

// TestKernelMatchesScalarAcrossGeometries is the kernel's differential
// battery: for every geometry x vector x warm fraction, a kernel replay
// (via the dispatching ReplayStreamTel) and a forced-scalar replay of the
// same stream must agree on every stat counter, produce DeepEqual telemetry
// sinks (which pins the exact event sequence — the sink's access clock
// makes reordering visible), and leave the two policy objects' trees in
// identical states.
func TestKernelMatchesScalarAcrossGeometries(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	rng := xrand.New(0xBA7C4)
	for _, cfg := range kernelConfigs() {
		for vi, vec := range vectorsFor(cfg.Ways, rng) {
			for _, warm := range []int{0, n / 3} {
				fast := policy.NewGIPPR(cfg.Sets(), cfg.Ways, vec)
				slow := policy.NewGIPPR(cfg.Sets(), cfg.Ways, vec)
				stream := makeStream(n, cfg, 2.5, 0xF00D+uint64(vi))

				var fastSink, slowSink telemetry.Sink
				e := kernelEngine(t, cfg, fast, &fastSink)
				cache.Replay(stream, warm, []cache.Engine{e}, nil)
				fastStats := e.Finish()

				slowStats := runScalar(stream, cfg, scalarOnly{slow}, warm, &slowSink)

				if fastStats != slowStats {
					t.Errorf("%s vec %d warm %d: kernel stats %+v != scalar %+v",
						cfg.Name, vi, warm, fastStats, slowStats)
				}
				if !reflect.DeepEqual(&fastSink, &slowSink) {
					t.Errorf("%s vec %d warm %d: telemetry sinks diverge", cfg.Name, vi, warm)
				}
				sameTrees(t, fmt.Sprintf("%s vec %d warm %d", cfg.Name, vi, warm), treesOf(fast), treesOf(slow))
			}
		}
	}
}

// TestDispatchedReplayStreamMatchesScalar checks the public entry point:
// cache.ReplayStreamTel with a packable policy (kernel path) against the
// same call with the policy wrapped scalarOnly, for PLRU and GIPPR.
func TestDispatchedReplayStreamMatchesScalar(t *testing.T) {
	cfg := cache.Config{Name: "d", SizeBytes: 32 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(30_000, cfg, 3, 0xD15)
	warm := len(stream) / 4
	makers := map[string]func() cache.Policy{
		"plru":  func() cache.Policy { return policy.NewPLRU(cfg.Sets(), cfg.Ways) },
		"gippr": func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.MidClimb(cfg.Ways)) },
	}
	for name, mk := range makers {
		var fastSink, slowSink telemetry.Sink
		fast := cache.ReplayStreamTel(stream, cfg, mk(), warm, &fastSink)
		slow := cache.ReplayStreamTel(stream, cfg, scalarOnly{mk()}, warm, &slowSink)
		if fast != slow {
			t.Errorf("%s: dispatched %+v != scalar %+v", name, fast, slow)
		}
		if !reflect.DeepEqual(&fastSink, &slowSink) {
			t.Errorf("%s: telemetry sinks diverge", name)
		}
	}
}

// TestKernelSeedsFromPolicyState replays through a policy whose trees were
// moved before the replay: the kernel must start from that state and leave
// its final state in the policy, matching the scalar path bit for bit. This
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
		t.Fatalf("seeded replay: kernel %+v != scalar %+v", fastRes, slowRes)
	}
	sameTrees(t, "seeded replay", ft, st)
}

// TestDispatchFallsBackForNonPackable pins who takes which path: dueling
// DGIPPR, the true-LRU stack policy and GIPPR+bypass (packable through its
// embedded GIPPR, but a Bypasser) must not engage the kernel, while
// PLRU/GIPPR must.
func TestDispatchFallsBackForNonPackable(t *testing.T) {
	cfg := cache.Config{Name: "f", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	sets, ways := cfg.Sets(), cfg.Ways
	vecs := [2]ipv.Vector{ipv.LRU(ways), ipv.LIP(ways)}
	for name, want := range map[string]bool{"plru": true, "gippr": true, "lru": false, "dgippr2": false, "gippr+bypass": false} {
		var pol cache.Policy
		switch name {
		case "plru":
			pol = policy.NewPLRU(sets, ways)
		case "gippr":
			pol = policy.NewGIPPR(sets, ways, ipv.LIP(ways))
		case "lru":
			pol = policy.NewTrueLRU(sets, ways)
		case "dgippr2":
			pol = policy.NewDGIPPR2(sets, ways, vecs)
		case "gippr+bypass":
			pol = policy.NewBypassGIPPR(sets, ways, ipv.LIP(ways))
		}
		if _, scalar := cache.NewEngine(cfg, pol, nil).(*cache.Cache); !scalar != want {
			t.Errorf("%s: kernel engaged = %v, want %v", name, !scalar, want)
		}
	}
	// A packable policy whose trees do not match the geometry must fall
	// back rather than model the wrong shape.
	if _, scalar := cache.NewEngine(cfg, policy.NewGIPPR(sets, 8, ipv.LRU(8)), nil).(*cache.Cache); !scalar {
		t.Error("mismatched-associativity policy engaged the kernel")
	}
	if _, scalar := cache.NewEngine(cfg, policy.NewPLRU(2*sets, ways), nil).(*cache.Cache); !scalar {
		t.Error("mismatched-sets policy engaged the kernel")
	}
}

// TestNewValidation pins the constructor's panic surface. The
// associativity domain is plrutree.New's: no Trees value exists outside it.
func TestNewValidation(t *testing.T) {
	vec := make([]int, 5)
	trees := plrutree.New(4, 4)
	cases := map[string]func(){
		"zero sets":        func() { batchreplay.New(plrutree.New(0, 4), 6, nil, vec) },
		"sampled mismatch": func() { batchreplay.New(trees, 6, make([]bool, 3), vec) },
		"short vector":     func() { batchreplay.New(trees, 6, nil, make([]int, 4)) },
		"entry range":      func() { batchreplay.New(trees, 6, nil, []int{0, 0, 4, 0, 0}) },
		"negative entry":   func() { batchreplay.New(trees, 6, nil, []int{0, -1, 0, 0, 0}) },
		"oversized block": func() {
			k := batchreplay.New(trees, 6, nil, vec)
			k.AccessBlock(make([]trace.Record, batchreplay.BlockSize+1), &batchreplay.HitBits{})
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHitBits covers the bitmap accessor across word boundaries.
func TestHitBits(t *testing.T) {
	var h batchreplay.HitBits
	for _, i := range []int{0, 1, 63, 64, 130, batchreplay.BlockSize - 1} {
		if h.Bit(i) {
			t.Fatalf("bit %d set in zero bitmap", i)
		}
		h[i>>6] |= 1 << (i & 63)
		if !h.Bit(i) {
			t.Fatalf("bit %d not visible after set", i)
		}
	}
}

// TestAccessBlockZeroAllocs is the steady-state allocation gate from the
// issue: once constructed (and telemetry attached), block processing must
// not allocate — with or without a sink.
func TestAccessBlockZeroAllocs(t *testing.T) {
	cfg := cache.Config{Name: "a", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(batchreplay.BlockSize, cfg, 2, 0xA110C)
	for _, sink := range []*telemetry.Sink{nil, {}} {
		withTel := sink != nil
		e := kernelEngine(t, cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways), sink)
		var hits batchreplay.HitBits
		e.AccessBlock(stream, &hits) // settle one block before measuring
		allocs := testing.AllocsPerRun(100, func() {
			e.AccessBlock(stream, &hits)
		})
		if allocs != 0 {
			t.Errorf("telemetry=%v: AccessBlock allocates %v per block, want 0", withTel, allocs)
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
// geometry must skip out-of-sample sets identically to the scalar model,
// with Skipped accounted and in-sample counters matching.
func TestSampledKernelSkips(t *testing.T) {
	cfg := cache.Config{Name: "sp", SizeBytes: 64 * 16 * 64, Ways: 16, BlockBytes: 64,
		HitLatency: 30, SampleShift: 2}
	stream := makeStream(20_000, cfg, 2, 0x5A)
	e := kernelEngine(t, cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways), nil)
	cache.Replay(stream, 500, []cache.Engine{e}, nil)
	res := e.Finish()
	slow := runScalar(stream, cfg, scalarOnly{policy.NewPLRU(cfg.Sets(), cfg.Ways)}, 500, nil)
	if res != slow {
		t.Fatalf("sampled kernel stats %+v != scalar %+v", res, slow)
	}
	if res.Skipped == 0 {
		t.Fatal("sampling skipped nothing; test is vacuous")
	}
}
