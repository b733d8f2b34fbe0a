package policy

import (
	"reflect"
	"slices"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// refLRU is an independent timestamp-based LRU used to validate GIPLR's
// stack implementation.
type refLRU struct {
	nop
	ways   int
	stamps []uint64
	clock  uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, stamps: make([]uint64, sets*ways)}
}

func (p *refLRU) Name() string { return "ref-lru" }
func (p *refLRU) OnHit(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *refLRU) OnFill(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *refLRU) Victim(set uint32, _ trace.Record) int {
	base := int(set) * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.stamps[base+w] < p.stamps[base+best] {
			best = w
		}
	}
	return best
}

// listIPV is the independent reference for GIPLR: the same IPV rule and
// telemetry events over naive MRU-first lists, one per set, moved by
// removing the way and inserting it at the target index. With several
// vectors a dueling.Duel chooses each set's vector, as DGIPLR's does, and
// leader-set misses vote.
type listIPV struct {
	nop
	vecs  []ipv.Vector
	duel  *dueling.Duel
	lists [][]int // lists[set][position] = way
	tel   *telemetry.Sink
}

func newListIPV(sets int, vecs ...ipv.Vector) *listIPV {
	p := &listIPV{vecs: vecs, lists: make([][]int, sets)}
	if n := len(vecs); n > 1 {
		p.duel = dueling.NewDuel(sets, n, leadersFor(sets, n), dueling.CounterBits11)
	}
	for set := range p.lists {
		for w := 0; w < vecs[0].K(); w++ {
			p.lists[set] = append(p.lists[set], w)
		}
	}
	return p
}

func (p *listIPV) Name() string                   { return "list-ipv" }
func (p *listIPV) SetTelemetry(s *telemetry.Sink) { p.tel = s }

func (p *listIPV) position(set uint32, way int) int { return slices.Index(p.lists[set], way) }

func (p *listIPV) moveTo(set uint32, way, target int) {
	from := p.position(set, way)
	p.lists[set] = slices.Insert(slices.Delete(p.lists[set], from, from+1), target, way)
}

func (p *listIPV) vec(set uint32) ipv.Vector {
	if p.duel == nil {
		return p.vecs[0]
	}
	return p.vecs[p.duel.Choose(set)]
}

func (p *listIPV) OnMiss(set uint32, _ trace.Record) {
	if p.duel == nil {
		return
	}
	if p.tel != nil {
		p.tel.Vote(p.duel.Leader(set))
	}
	p.duel.OnMiss(set)
}

func (p *listIPV) OnHit(set uint32, way int, _ trace.Record) {
	from := p.position(set, way)
	to := p.vec(set).Promotion(from)
	if p.tel != nil {
		p.tel.Promote(from, to)
	}
	p.moveTo(set, way, to)
}

func (p *listIPV) Victim(set uint32, _ trace.Record) int {
	return p.lists[set][len(p.lists[set])-1]
}

func (p *listIPV) OnFill(set uint32, way int, _ trace.Record) {
	pos := p.vec(set).Insertion()
	if p.tel != nil {
		p.tel.Insert(pos)
	}
	p.moveTo(set, way, pos)
}

// TestGIPLRMatchesListReference replays GIPLR on the packed lanes and the
// list model under the same vector — LRU, LIP, every multi-step vector,
// the paper's GIPLR vector and random vectors — at associativities that
// fill whole words, leave parked lanes, or are not powers of two, and
// requires equal stats, identical telemetry sinks and equal final positions.
func TestGIPLRMatchesListReference(t *testing.T) {
	rng := xrand.New(0x115)
	for _, ways := range []int{2, 3, 4, 8, 12, 16, 24, 64} {
		cfg := cache.Config{Name: "l", SizeBytes: 8 * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
		vecs := []ipv.Vector{ipv.LRU(ways), ipv.LIP(ways), ipv.PaperGIPLR.ScaleTo(ways)}
		for step := 1; step <= ways; step++ {
			if ways%step == 0 {
				vecs = append(vecs, ipv.MultiStep(ways, step))
			}
		}
		for i := 0; i < 3; i++ {
			v := ipv.New(ways)
			for j := range v {
				v[j] = rng.Intn(ways)
			}
			vecs = append(vecs, v)
		}
		n := 20000
		if testing.Short() {
			n = 3000
		}
		for i, v := range vecs {
			recs := mslruStream(cfg, n, uint64(ways*100+i))
			got := NewGIPLR(cfg.Sets(), ways, v)
			ref := newListIPV(cfg.Sets(), v)
			gotStats, gotSink := replayTel(cfg, got, recs)
			refStats, refSink := replayTel(cfg, ref, recs)
			if gotStats != refStats {
				t.Fatalf("ways %d vector %v: stats %+v != list %+v", ways, v, gotStats, refStats)
			}
			if !reflect.DeepEqual(gotSink, refSink) {
				t.Fatalf("ways %d vector %v: telemetry diverged from the list", ways, v)
			}
			for set := uint32(0); set < uint32(cfg.Sets()); set++ {
				for w := 0; w < ways; w++ {
					if gp, rp := got.Position(set, w), ref.position(set, w); gp != rp {
						t.Fatalf("ways %d vector %v set %d way %d: position %d != list's %d", ways, v, set, w, gp, rp)
					}
				}
			}
		}
	}
}

// TestDGIPLRMatchesListReference replays 2- and 4-vector DGIPLR on the
// packed lanes and the list model duelling the same vectors, and requires
// equal stats, identical telemetry sinks (votes included), the same winner
// and equal final positions.
func TestDGIPLRMatchesListReference(t *testing.T) {
	rng := xrand.New(0xd61)
	for _, ways := range []int{2, 4, 8, 16, 64} {
		cfg := cache.Config{Name: "d", SizeBytes: 64 * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
		random := func() ipv.Vector {
			v := ipv.New(ways)
			for j := range v {
				v[j] = rng.Intn(ways)
			}
			return v
		}
		n := 40000
		if testing.Short() {
			n = 6000
		}
		for i, vecs := range [][]ipv.Vector{
			{ipv.LRU(ways), ipv.LIP(ways)},
			{random(), random()},
			{ipv.LRU(ways), ipv.LIP(ways), ipv.PaperGIPLR.ScaleTo(ways), ipv.MultiStep(ways, 2)},
			{random(), random(), random(), random()},
		} {
			var got *GIPLR
			if len(vecs) == 2 {
				got = NewDGIPLR2(cfg.Sets(), ways, [2]ipv.Vector(vecs))
			} else {
				got = NewDGIPLR4(cfg.Sets(), ways, [4]ipv.Vector(vecs))
			}
			ref := newListIPV(cfg.Sets(), vecs...)
			recs := mslruStream(cfg, n, uint64(ways*10+i))
			gotStats, gotSink := replayTel(cfg, got, recs)
			refStats, refSink := replayTel(cfg, ref, recs)
			if gotStats != refStats {
				t.Fatalf("ways %d vectors %v: stats %+v != list %+v", ways, vecs, gotStats, refStats)
			}
			if !reflect.DeepEqual(gotSink, refSink) {
				t.Fatalf("ways %d vectors %v: telemetry diverged from the list", ways, vecs)
			}
			if got.Winner() != ref.duel.Winner() {
				t.Fatalf("ways %d vectors %v: winner %d != list's %d", ways, vecs, got.Winner(), ref.duel.Winner())
			}
			for set := uint32(0); set < uint32(cfg.Sets()); set++ {
				for w := 0; w < ways; w++ {
					if gp, rp := got.Position(set, w), ref.position(set, w); gp != rp {
						t.Fatalf("ways %d vectors %v set %d way %d: position %d != list's %d", ways, vecs, set, w, gp, rp)
					}
				}
			}
		}
	}
}

// TestExactRecencyConstructorsAllocateLittle gates per-set allocation:
// every exact-recency policy keeps all sets in one packed slice, so a
// 4096-set cache costs a handful of allocations, not a few per set.
func TestExactRecencyConstructorsAllocateLittle(t *testing.T) {
	const sets, ways = 4096, 16
	for name, build := range map[string]func(){
		"NewTrueLRU": func() { NewTrueLRU(sets, ways) },
		"NewLIP":     func() { NewLIP(sets, ways) },
		"NewGIPLR":   func() { NewGIPLR(sets, ways, ipv.PaperGIPLR) },
		"NewMSLRU":   func() { NewMSLRU(sets, ways, 4) },
		"NewBIP":     func() { NewBIP(sets, ways) },
		"NewDIP":     func() { NewDIP(sets, ways) },
		"NewPIPPDyn": func() { NewPIPPDyn(sets, ways, 2) },
		"NewDGIPLR2": func() { NewDGIPLR2(sets, ways, ipv.PaperWI2DGIPPR) },
		"NewDGIPLR4": func() { NewDGIPLR4(sets, ways, ipv.PaperWI4DGIPPR) },
	} {
		if n := testing.AllocsPerRun(5, build); n >= 100 {
			t.Errorf("%s(%d, %d) made %v allocations, want fewer than 100", name, sets, ways, n)
		}
	}
}

func TestTrueLRUMatchesReference(t *testing.T) {
	cfg := smallConfig()
	stream := uniformBlocks(40, 20000, 5)
	got := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	want := run(cfg, newRefLRU(cfg.Sets(), cfg.Ways), stream)
	if got.Misses != want.Misses {
		t.Fatalf("GIPLR-as-LRU misses %d != reference %d", got.Misses, want.Misses)
	}
}

func TestTrueLRUName(t *testing.T) {
	if NewTrueLRU(4, 4).Name() != "LRU" {
		t.Fatal("name")
	}
	if NewLIP(4, 4).Name() != "LIP" {
		t.Fatal("LIP name")
	}
}

func TestGIPLRVectorAccessors(t *testing.T) {
	p := NewGIPLR(4, 16, ipv.PaperGIPLR)
	if !p.Vector().Equal(ipv.PaperGIPLR) {
		t.Fatal("vector accessor")
	}
	v := p.Vector()
	v[0] = 9
	if p.Vector()[0] == 9 {
		t.Fatal("Vector leaks internal storage")
	}
}

func TestGIPLRPanics(t *testing.T) {
	bad := []func(){
		func() { NewGIPLR(4, 16, ipv.LRU(8)) },           // associativity mismatch
		func() { NewGIPLR(4, 16, make(ipv.Vector, 17)) }, // valid actually: zeros
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched vector accepted")
			}
		}()
		bad[0]()
	}()
	bad[1]() // must not panic
}

func TestLIPBeatsLRUOnThrash(t *testing.T) {
	cfg := testConfig() // 256-block capacity
	stream := cyclic(384, 40000)
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	lip := run(cfg, NewLIP(cfg.Sets(), cfg.Ways), stream)
	// LRU gets zero hits on a 1.5x-capacity cyclic loop; LIP retains a
	// large stable fraction.
	if lru.Hits > 400 { // allow cold-start noise only
		t.Fatalf("LRU got %d hits on a thrashing loop", lru.Hits)
	}
	if lip.Hits < uint64(len(stream))/3 {
		t.Fatalf("LIP hits = %d of %d, expected a large retained fraction", lip.Hits, len(stream))
	}
}

func TestLRUBeatsLIPOnQuickReuse(t *testing.T) {
	cfg := testConfig()
	stream := scanWithQuickReuse(40000, 64) // per-set reuse distance ~4
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	lip := run(cfg, NewLIP(cfg.Sets(), cfg.Ways), stream)
	if lru.Misses >= lip.Misses {
		t.Fatalf("LRU misses %d should be well below LIP %d on quick-reuse scan",
			lru.Misses, lip.Misses)
	}
}

func TestGIPLRMidClimbFiltersOneShots(t *testing.T) {
	// The MidClimb vector (insert at LRU, promote through the middle)
	// behaves LIP-like on thrash.
	cfg := testConfig()
	stream := cyclic(384, 40000)
	mid := run(cfg, NewGIPLR(cfg.Sets(), cfg.Ways, ipv.MidClimb(16)), stream)
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	if mid.Misses >= lru.Misses {
		t.Fatalf("MidClimb misses %d not below LRU %d on thrash", mid.Misses, lru.Misses)
	}
}

func TestGIPLRPermutationInvariantUnderTraffic(t *testing.T) {
	cfg := smallConfig()
	p := NewGIPLR(cfg.Sets(), cfg.Ways, ipv.MidClimb(cfg.Ways))
	c := cache.New(cfg, p)
	rng := xrand.New(77)
	for i := 0; i < 20000; i++ {
		c.Access(trace.Record{Gap: 1, Addr: rng.Uint64n(64) * 64})
	}
	for set := uint32(0); set < uint32(cfg.Sets()); set++ {
		seen := make([]bool, cfg.Ways)
		for w := 0; w < cfg.Ways; w++ {
			pos := p.Position(set, w)
			if pos < 0 || pos >= cfg.Ways || seen[pos] {
				t.Fatalf("set %d stack corrupt: way %d at %d", set, w, pos)
			}
			seen[pos] = true
		}
	}
}

func TestGIPLROverhead(t *testing.T) {
	p := NewTrueLRU(4096, 16)
	perSet, global := p.OverheadBits()
	if perSet != 64 || global != 0 {
		t.Fatalf("LRU overhead %v/%v", perSet, global)
	}
}
