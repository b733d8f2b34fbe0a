package cpu

import (
	"reflect"
	"runtime"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/plrutree"
	"gippr/internal/policy"
	"gippr/internal/recency"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// replayMRU evicts the most-recently-touched way — a deliberately different
// replacement decision from replayLRU, so multi-model tests exercise models
// that diverge on the same stream.
type replayMRU struct {
	ways   int
	stamps []uint64
	clock  uint64
}

func (p *replayMRU) Name() string { return "rmru" }
func (p *replayMRU) OnHit(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *replayMRU) OnMiss(uint32, trace.Record) {}
func (p *replayMRU) OnFill(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *replayMRU) OnEvict(uint32, int, trace.Record) {}
func (p *replayMRU) Victim(set uint32, _ trace.Record) int {
	base := int(set) * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.stamps[base+w] > p.stamps[base+best] {
			best = w
		}
	}
	return best
}

// multiTestMakers builds fresh policy instances for a geometry — fresh per
// call, because policies are stateful and each replay path needs its own.
func multiTestMakers(cfg cache.Config) []func() cache.Policy {
	return []func() cache.Policy{
		func() cache.Policy { return &replayLRU{ways: cfg.Ways, stamps: make([]uint64, cfg.Sets()*cfg.Ways)} },
		func() cache.Policy { return &replayMRU{ways: cfg.Ways, stamps: make([]uint64, cfg.Sets()*cfg.Ways)} },
		func() cache.Policy { return &replayLRU{ways: cfg.Ways, stamps: make([]uint64, cfg.Sets()*cfg.Ways)} },
	}
}

func TestMultiWindowReplayMatchesSingle(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(10000, 3)
	makers := multiTestMakers(cfg)
	const warm = 1000

	pols := make([]cache.Policy, len(makers))
	models := make([]*WindowModel, len(makers))
	for i, mk := range makers {
		pols[i] = mk()
		models[i] = DefaultWindowModel()
	}
	multi := MultiWindowReplay(stream, cfg, pols, warm, models, nil)

	for i, mk := range makers {
		single := WindowReplay(stream, cfg, mk(), warm, DefaultWindowModel())
		if multi[i] != single {
			t.Errorf("model %d: multi %+v != single %+v", i, multi[i], single)
		}
	}
	// The two policies genuinely diverge — otherwise this test proves less
	// than it claims.
	if multi[0].Misses == multi[1].Misses {
		t.Fatal("LRU and MRU agreed exactly; stream too easy to distinguish models")
	}
}

func TestMultiWindowReplaySampledMatchesSingle(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30, SampleShift: 1}
	stream := makeStream(8000, 5)
	makers := multiTestMakers(cfg)
	pols := make([]cache.Policy, len(makers))
	models := make([]*WindowModel, len(makers))
	for i, mk := range makers {
		pols[i] = mk()
		models[i] = DefaultWindowModel()
	}
	multi := MultiWindowReplay(stream, cfg, pols, 500, models, nil)
	for i, mk := range makers {
		single := WindowReplay(stream, cfg, mk(), 500, DefaultWindowModel())
		if multi[i] != single {
			t.Errorf("model %d: sampled multi %+v != single %+v", i, multi[i], single)
		}
		if multi[i].Skipped == 0 {
			t.Errorf("model %d: sampling skipped nothing", i)
		}
	}
}

func TestMultiWindowReplayTelemetry(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(6000, 3)
	makers := multiTestMakers(cfg)
	pols := make([]cache.Policy, len(makers))
	models := make([]*WindowModel, len(makers))
	sinks := make([]*telemetry.Sink, len(makers))
	for i, mk := range makers {
		pols[i] = mk()
		models[i] = DefaultWindowModel()
		if i != 1 { // leave one model uninstrumented: nil entries are legal
			sinks[i] = &telemetry.Sink{}
		}
	}
	multi := MultiWindowReplay(stream, cfg, pols, 500, models, sinks)
	for i, mk := range makers {
		single := WindowReplay(stream, cfg, mk(), 500, DefaultWindowModel())
		if multi[i] != single {
			t.Errorf("model %d: instrumented multi %+v != bare single %+v", i, multi[i], single)
		}
	}
	for i, s := range sinks {
		if s == nil {
			continue
		}
		if s.Accesses() != multi[i].Accesses {
			t.Errorf("sink %d saw %d accesses, replay counted %d", i, s.Accesses(), multi[i].Accesses)
		}
	}
}

func TestMultiWindowReplayEdgeCases(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	if got := MultiWindowReplay(makeStream(100, 3), cfg, nil, 10, nil, nil); got != nil {
		t.Fatalf("empty policy list returned %v", got)
	}
	// Warm beyond the stream length measures nothing.
	pols := []cache.Policy{&replayLRU{ways: 4, stamps: make([]uint64, cfg.Sets()*4)}}
	res := MultiWindowReplay(makeStream(10, 3), cfg, pols, 100, []*WindowModel{DefaultWindowModel()}, nil)
	if res[0].Accesses != 0 || res[0].Instructions != 0 {
		t.Fatalf("over-warm replay measured %+v", res[0])
	}
	for _, bad := range []func(){
		func() {
			MultiWindowReplay(nil, cfg, pols, 0, nil, nil) // models length mismatch
		},
		func() {
			MultiWindowReplay(nil, cfg, pols, 0, []*WindowModel{DefaultWindowModel()},
				[]*telemetry.Sink{nil, nil}) // sinks length mismatch
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("length mismatch not caught")
				}
			}()
			bad()
		}()
	}
}

// scalarEngine hides a policy's PackedIPV and PackedLanes methods so a
// cache over it runs the Policy callbacks — the reference side of the step-versus-callbacks
// comparison — and counts the OnFill calls its cache makes in fills.
// SetTelemetry is re-exposed so instrumented runs still reach the wrapped
// policy.
type scalarEngine struct {
	cache.Policy
	fills *int
}

func (s scalarEngine) OnFill(set uint32, way int, r trace.Record) {
	*s.fills++
	s.Policy.OnFill(set, way, r)
}

func (s scalarEngine) SetTelemetry(t *telemetry.Sink) {
	if ins, ok := s.Policy.(cache.Instrumented); ok {
		ins.SetTelemetry(t)
	}
}

// packedEngine is scalarEngine with the wrapped policy's PackedIPV and
// PackedLanes answers, so a cache over it takes the IPV step exactly when
// it would over the bare policy. The step calls no callback: no fills
// after a replay with misses means the step ran.
type packedEngine struct{ scalarEngine }

func (p packedEngine) PackedIPV() ([]int, plrutree.Trees, bool) {
	if pk, ok := p.Policy.(cache.Packable); ok {
		return pk.PackedIPV()
	}
	return nil, plrutree.Trees{}, false
}

func (p packedEngine) PackedLanes() ([]int, recency.Lanes, bool) {
	if pk, ok := p.Policy.(cache.PackableLanes); ok {
		return pk.PackedLanes()
	}
	return nil, recency.Lanes{}, false
}

// TestMultiWindowReplayPackedMatchesScalar mixes models on the IPV step and
// models on the callbacks in one MultiWindowReplay call: each policy with
// a packed form (PLRU and GIPPR over trees, LRU over lanes) runs once on
// the step and once wrapped in scalarEngine, plus one policy with no
// packed form at all. Every step
// model must agree with its callbacks twin — timing results and full
// telemetry sinks — and with a standalone one-policy replay of the same
// pair.
func TestMultiWindowReplayPackedMatchesScalar(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 32 * 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 30}
	const warm = 1500
	// A random stream over ~1.5x the cache's footprint mixes hits, evictions
	// and writebacks — unlike makeStream's pure scan, it makes PLRU and LIP
	// genuinely diverge, so the cross-policy sanity check below has teeth.
	stream := make([]trace.Record, 12000)
	s := uint64(0x9E3779B97F4A7C15)
	blocks := uint64(cfg.Sets()*cfg.Ways) * 3 / 2
	for i := range stream {
		s = s*6364136223846793005 + 1442695040888963407
		stream[i] = trace.Record{
			Addr:  s >> 33 % blocks * 64,
			Gap:   uint32(s>>60)%8 + 1,
			Write: s>>32&3 == 0,
		}
	}
	vec := ipv.LIP(cfg.Ways)

	makers := []func() cache.Policy{
		func() cache.Policy { return policy.NewPLRU(cfg.Sets(), cfg.Ways) },
		func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, vec) },
		func() cache.Policy { return policy.NewTrueLRU(cfg.Sets(), cfg.Ways) },
		func() cache.Policy { return &replayLRU{ways: cfg.Ways, stamps: make([]uint64, cfg.Sets()*cfg.Ways)} },
	}

	// One call with step and callbacks twins interleaved.
	pols := make([]cache.Policy, 0, 2*len(makers))
	models := make([]*WindowModel, 0, 2*len(makers))
	sinks := make([]*telemetry.Sink, 0, 2*len(makers))
	fills := make([][2]int, len(makers))
	for i, mk := range makers {
		pols = append(pols, packedEngine{scalarEngine{mk(), &fills[i][0]}}, scalarEngine{mk(), &fills[i][1]})
		models = append(models, DefaultWindowModel(), DefaultWindowModel())
		sinks = append(sinks, &telemetry.Sink{}, &telemetry.Sink{})
	}
	multi := MultiWindowReplay(stream, cfg, pols, warm, models, sinks)

	// Check the routing itself: the first three makers must take the step,
	// and the scalarEngine wrapper must defeat it.
	for i := range makers {
		if step, want := fills[i][0] == 0, i < 3; step != want {
			t.Fatalf("maker %d: IPV step ran = %v, want %v", i, step, want)
		}
		if fills[i][1] == 0 {
			t.Fatalf("maker %d: the scalarEngine wrapper took the IPV step", i)
		}
	}
	for i, mk := range makers {
		step, scalar := multi[2*i], multi[2*i+1]
		if step != scalar {
			t.Errorf("maker %d: step %+v != callbacks twin %+v", i, step, scalar)
		}
		if !reflect.DeepEqual(sinks[2*i], sinks[2*i+1]) {
			t.Errorf("maker %d: step sink diverged from callbacks twin's", i)
		}
		sink := &telemetry.Sink{}
		single := MultiWindowReplay(stream, cfg, []cache.Policy{mk()}, warm,
			[]*WindowModel{DefaultWindowModel()}, []*telemetry.Sink{sink})[0]
		if step != single {
			t.Errorf("maker %d: multi %+v != standalone %+v", i, step, single)
		}
		if !reflect.DeepEqual(sinks[2*i], sink) {
			t.Errorf("maker %d: multi sink diverged from standalone sink", i)
		}
	}
	if multi[0].Misses == multi[2].Misses {
		t.Fatal("PLRU and GIPPR agreed exactly; stream too easy to distinguish models")
	}
}

func TestLinearModelSampledCPI(t *testing.T) {
	m := DefaultLinearModel()
	rs := cache.ReplayStats{Accesses: 50, Misses: 20, Instructions: 1000}
	got := m.SampledCPI(rs, 2)
	want := (1000*m.BaseCPI + 2*(50*m.L3HitCycles+20*m.MissCycles)) / 1000
	if got != want {
		t.Fatalf("SampledCPI = %v want %v", got, want)
	}
	if got := m.SampledCPI(cache.ReplayStats{}, 2); got != m.BaseCPI {
		t.Fatalf("zero-instruction SampledCPI = %v", got)
	}
	// More misses at the same factor must cost more.
	more := m.SampledCPI(cache.ReplayStats{Accesses: 50, Misses: 30, Instructions: 1000}, 2)
	if more <= got {
		t.Fatal("SampledCPI not monotonic in misses")
	}
}

// FuzzMultiRunConsistency drives random short synthetic streams through the
// multi-model replay and through sequential per-policy replays, and
// requires exact agreement. Any cross-model state leak (one model's cache
// or window state bleeding into another's) shows up as a mismatch. The
// models mix both cache paths: the test policies on the callbacks, plus
// PLRU, GIPPR and LRU on the IPV step next to scalarEngine twins, and each
// step model must also equal its twin. The fuzz input
// encodes the stream — each record is (addr byte, gap byte) — plus the warm
// length and an optional sample shift, so the corpus explores full-fidelity
// and sampled geometries alike.
func FuzzMultiRunConsistency(f *testing.F) {
	f.Add([]byte{0, 1, 64, 1, 128, 2, 0, 1}, uint8(2), uint8(0))
	f.Add([]byte{7, 3, 7, 3, 9, 1, 200, 5, 13, 2}, uint8(0), uint8(1))
	f.Add([]byte{255, 255, 0, 0, 128, 128}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, warmByte, shiftByte uint8) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		stream := make([]trace.Record, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			stream = append(stream, trace.Record{
				// Spread addresses over several sets and tags of the tiny
				// geometry below; gap 0 is legal in captured streams only as
				// a degenerate case, keep it >= 1.
				Addr:  uint64(data[i]) * 64,
				Gap:   uint32(data[i+1]%64) + 1,
				Write: data[i]&1 == 1,
			})
		}
		cfg := cache.Config{Name: "fz", SizeBytes: 8 * 2 * 64, Ways: 2, BlockBytes: 64,
			HitLatency: 30, SampleShift: uint(shiftByte % 4)}
		warm := int(warmByte) % (len(stream) + 1)
		makers := multiTestMakers(cfg)
		twinsAt := len(makers)
		var stepFills, scalarFills int
		for _, mk := range []func() cache.Policy{
			func() cache.Policy { return policy.NewPLRU(cfg.Sets(), cfg.Ways) },
			func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.LIP(cfg.Ways)) },
			func() cache.Policy { return policy.NewTrueLRU(cfg.Sets(), cfg.Ways) },
		} {
			makers = append(makers,
				func() cache.Policy { return packedEngine{scalarEngine{mk(), &stepFills}} },
				func() cache.Policy { return scalarEngine{mk(), &scalarFills} })
		}
		pols := make([]cache.Policy, len(makers))
		models := make([]*WindowModel, len(makers))
		for i, mk := range makers {
			pols[i] = mk()
			models[i] = DefaultWindowModel()
		}
		multi := MultiWindowReplay(stream, cfg, pols, warm, models, nil)
		for i, mk := range makers {
			single := WindowReplay(stream, cfg, mk(), warm, DefaultWindowModel())
			if multi[i] != single {
				t.Fatalf("model %d diverged:\nmulti  %+v\nsingle %+v", i, multi[i], single)
			}
		}
		for i := twinsAt; i < len(makers); i += 2 {
			if multi[i] != multi[i+1] {
				t.Fatalf("model %d diverged from its callbacks twin:\nstep      %+v\ncallbacks %+v", i, multi[i], multi[i+1])
			}
		}
		if stepFills != 0 {
			t.Fatalf("the IPV step did not run: %d policy fills", stepFills)
		}
	})
}

// TestMultiWindowReplayReusesTagStore is the tag-store pool's allocation
// gate. A replay of one-vector GIPPR into the paper's 4096x16 LLC built its
// ~640 KiB of tags, valid and dirty words and signatures afresh each time;
// after one warm-up call, which leaves a store in cache's pool, the same
// replay must allocate under 64 KiB beyond the policy and window model it
// is given. sync.Pool may drop a handed-back store (at random under the
// race detector, or when a GC runs twice in between), so the gate takes the
// least of ten replays.
func TestMultiWindowReplayReusesTagStore(t *testing.T) {
	cfg := cache.L3Config
	stream := makeStream(4*cache.BlockSize, 3)
	replay := func() uint64 {
		pols := []cache.Policy{policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR)}
		models := []*WindowModel{DefaultWindowModel()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MultiWindowReplay(stream, cfg, pols, cache.BlockSize, models, nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	replay()
	least := replay()
	for range 9 {
		least = min(least, replay())
	}
	if least >= 64<<10 {
		t.Errorf("MultiWindowReplay allocates %d bytes beyond its policy, want under %d", least, 64<<10)
	}
}
