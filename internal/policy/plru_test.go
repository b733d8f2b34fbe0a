package policy

import (
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// refPLRU is standard tree PseudoLRU written out on its own (paper Section
// 3.1), the reference for NewPLRU: each set is an array of node bits
// indexed 1..k-1 in heap order, promote (Figure 6) on a hit and on a fill,
// find_plru (Figure 5) for the victim, and the events of promoting and
// inserting at position 0.
type refPLRU struct {
	nop
	ways  int
	nodes [][]int // nodes[set][n] is internal node n's plru bit
	tel   *telemetry.Sink
}

func newRefPLRU(sets, ways int) *refPLRU {
	p := &refPLRU{ways: ways, nodes: make([][]int, sets)}
	for i := range p.nodes {
		p.nodes[i] = make([]int, ways)
	}
	return p
}

func (p *refPLRU) Name() string                   { return "ref-plru" }
func (p *refPLRU) SetTelemetry(s *telemetry.Sink) { p.tel = s }

// promote points every node on way's path away from it.
func (p *refPLRU) promote(set uint32, way int) {
	for n := p.ways + way; n > 1; n /= 2 {
		if n%2 == 0 {
			p.nodes[set][n/2] = 1
		} else {
			p.nodes[set][n/2] = 0
		}
	}
}

// position reads way's stack position: a right child contributes its
// parent's bit, a left child the complement, the root the top bit.
func (p *refPLRU) position(set uint32, way int) int {
	x := 0
	for n, i := p.ways+way, 0; n > 1; n, i = n/2, i+1 {
		b := p.nodes[set][n/2]
		if n%2 == 0 {
			b = 1 - b
		}
		x += b << i
	}
	return x
}

// word packs set's node bits in the plrutree.Trees word layout.
func (p *refPLRU) word(set uint32) uint64 {
	var w uint64
	for n := 1; n < p.ways; n++ {
		w |= uint64(p.nodes[set][n]) << n
	}
	return w
}

func (p *refPLRU) OnHit(set uint32, way int, _ trace.Record) {
	if p.tel != nil {
		p.tel.Promote(p.position(set, way), 0)
	}
	p.promote(set, way)
}

func (p *refPLRU) OnFill(set uint32, way int, _ trace.Record) {
	if p.tel != nil {
		p.tel.Insert(0)
	}
	p.promote(set, way)
}

func (p *refPLRU) Victim(set uint32, _ trace.Record) int {
	n := 1
	for n < p.ways {
		n = 2*n + p.nodes[set][n]
	}
	return n - p.ways
}

func TestGIPPRWithZeroVectorEqualsPLRU(t *testing.T) {
	// PLRU is GIPPR under the all-zero vector, so it must be bit-identical
	// to plain tree PseudoLRU: SetPosition(w, 0) writes exactly the bits
	// promote(w) does. Stats, telemetry and final tree bits must match the
	// reference at every tree associativity.
	for _, ways := range []int{2, 4, 8, 16, 32, 64} {
		cfg := cache.Config{Name: "p", SizeBytes: 8 * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
		recs := mslruStream(cfg, 20000, uint64(ways))
		plru := NewPLRU(cfg.Sets(), ways)
		ref := newRefPLRU(cfg.Sets(), ways)
		gotStats, gotSink := replayTel(cfg, plru, recs)
		refStats, refSink := replayTel(cfg, ref, recs)
		if gotStats != refStats {
			t.Fatalf("ways %d: PLRU stats %+v != reference %+v", ways, gotStats, refStats)
		}
		if !reflect.DeepEqual(gotSink, refSink) {
			t.Fatalf("ways %d: PLRU telemetry diverged from the reference", ways)
		}
		for set := uint32(0); set < uint32(cfg.Sets()); set++ {
			if plru.trees.Word(set) != ref.word(set) {
				t.Fatalf("ways %d: tree bits diverged in set %d", ways, set)
			}
		}
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// The paper: "PLRU provides performance almost equivalent to full
	// LRU." Allow a few percent miss-count difference on a mixed stream.
	cfg := testConfig()
	stream := append(uniformBlocks(128, 30000, 9), scanWithQuickReuse(30000, 64)...)
	plru := run(cfg, NewPLRU(cfg.Sets(), cfg.Ways), stream)
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	ratio := float64(plru.Misses) / float64(lru.Misses)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("PLRU/LRU miss ratio = %.3f, expected near 1", ratio)
	}
}

func TestGIPPRInsertionPositionRespected(t *testing.T) {
	// With a single set, fill the cache and verify the incoming block's
	// PseudoLRU position equals the vector's insertion entry.
	cfg := cache.Config{Name: "one", SizeBytes: 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	v := ipv.LRU(16)
	v[16] = 13 // insert at position 13
	p := NewGIPPR(cfg.Sets(), cfg.Ways, v)
	c := cache.New(cfg, p)
	for b := uint64(0); b < 16; b++ {
		c.Access(trace.Record{Gap: 1, Addr: b * 64})
	}
	// Next fill must land at position 13 in the tree.
	c.Access(trace.Record{Gap: 1, Addr: 99 * 64})
	found := false
	for w := 0; w < 16; w++ {
		if p.trees.Position(0, w) == 13 {
			found = true
		}
	}
	if !found {
		t.Fatal("no way at the insertion position after a fill")
	}
}

func TestGIPPRLIPLikeVectorResistsThrash(t *testing.T) {
	cfg := testConfig()
	v := ipv.LIP(16) // PLRU-position insertion
	stream := cyclic(384, 40000)
	gip := run(cfg, NewGIPPR(cfg.Sets(), cfg.Ways, v), stream)
	plru := run(cfg, NewPLRU(cfg.Sets(), cfg.Ways), stream)
	if gip.Misses >= plru.Misses {
		t.Fatalf("PLRU-insert GIPPR misses %d not below PLRU %d on thrash",
			gip.Misses, plru.Misses)
	}
	if gip.Hits < uint64(len(stream))/3 {
		t.Fatalf("GIPPR-LIP hits %d of %d too low", gip.Hits, len(stream))
	}
}

func TestGIPPRSetNameAndVector(t *testing.T) {
	p := NewGIPPR(4, 16, ipv.PaperWIGIPPR)
	p.SetName("WN-GIPPR")
	if p.Name() != "WN-GIPPR" {
		t.Fatal("SetName ignored")
	}
	if !p.Vector().Equal(ipv.PaperWIGIPPR) {
		t.Fatal("vector accessor")
	}
}

func TestGIPPRPanicsOnMismatchedVector(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	NewGIPPR(4, 16, ipv.LRU(8))
}

func TestDGIPPR2IdenticalVectorsEqualGIPPR(t *testing.T) {
	cfg := testConfig()
	v := ipv.PaperWIGIPPR
	a := NewDGIPPR2(cfg.Sets(), cfg.Ways, [2]ipv.Vector{v, v})
	b := NewGIPPR(cfg.Sets(), cfg.Ways, v)
	ca, cb := cache.New(cfg, a), cache.New(cfg, b)
	rng := xrand.New(321)
	for i := 0; i < 40000; i++ {
		r := trace.Record{Gap: 1, Addr: rng.Uint64n(500) * 64}
		if ca.Access(r) != cb.Access(r) {
			t.Fatalf("DGIPPR2[v,v] diverged from GIPPR[v] at access %d", i)
		}
	}
}

func TestDGIPPR4IdenticalVectorsEqualGIPPR(t *testing.T) {
	cfg := testConfig()
	v := ipv.PaperWIGIPPR
	a := NewDGIPPR4(cfg.Sets(), cfg.Ways, [4]ipv.Vector{v, v, v, v})
	b := NewGIPPR(cfg.Sets(), cfg.Ways, v)
	ca, cb := cache.New(cfg, a), cache.New(cfg, b)
	rng := xrand.New(654)
	for i := 0; i < 40000; i++ {
		r := trace.Record{Gap: 1, Addr: rng.Uint64n(500) * 64}
		if ca.Access(r) != cb.Access(r) {
			t.Fatalf("DGIPPR4[v x4] diverged from GIPPR[v] at access %d", i)
		}
	}
}

func TestDGIPPR2AdaptsToThrash(t *testing.T) {
	// Duel between pure-PLRU-like (MRU insert) and LIP-like vectors: on a
	// thrashing loop the LIP-like vector must win and pull the followers
	// close to the static LIP-like policy.
	cfg := cache.L3Config
	mru := ipv.LRU(16)
	lip := ipv.LIP(16)
	stream := cyclic(90<<10, 500_000)
	d := run(cfg, NewDGIPPR2(cfg.Sets(), cfg.Ways, [2]ipv.Vector{mru, lip}), stream)
	static := run(cfg, NewGIPPR(cfg.Sets(), cfg.Ways, lip), stream)
	plru := run(cfg, NewPLRU(cfg.Sets(), cfg.Ways), stream)
	if d.Misses >= plru.Misses {
		t.Fatalf("2-DGIPPR (%d misses) did not beat PLRU (%d) on thrash", d.Misses, plru.Misses)
	}
	// Within 25% of the static winner (leader sets for the losing vector
	// keep missing, so exact parity is impossible).
	if float64(d.Misses) > 1.25*float64(static.Misses) {
		t.Fatalf("2-DGIPPR misses %d too far above static LIP-like %d", d.Misses, static.Misses)
	}
}

func TestDGIPPR2WinnerFlips(t *testing.T) {
	cfg := cache.L3Config
	mru := ipv.LRU(16)
	lip := ipv.LIP(16)
	p := NewDGIPPR2(cfg.Sets(), cfg.Ways, [2]ipv.Vector{mru, lip})
	c := cache.New(cfg, p)
	// Thrash: LIP side (index 1) should win.
	for i, b := range cyclic(90<<10, 400_000) {
		_ = i
		c.Access(trace.Record{Gap: 1, Addr: uint64(b) * 64})
	}
	if p.Winner() != 1 {
		t.Fatalf("winner after thrash = %d, want 1 (LIP-like)", p.Winner())
	}
}

func TestDGIPPR4TournamentSelects(t *testing.T) {
	cfg := cache.L3Config
	vecs := [4]ipv.Vector{ipv.LRU(16), ipv.LIP(16), ipv.MidClimb(16), ipv.PaperWIGIPPR}
	p := NewDGIPPR4(cfg.Sets(), cfg.Ways, vecs)
	c := cache.New(cfg, p)
	for _, b := range cyclic(90<<10, 400_000) {
		c.Access(trace.Record{Gap: 1, Addr: uint64(b) * 64})
	}
	w := p.Winner()
	if w == 0 {
		t.Fatalf("tournament still on MRU-insert vector after heavy thrash")
	}
}

func TestNewDGIPPRN(t *testing.T) {
	v := ipv.LRU(16)
	if p := NewDGIPPRN(16, 16, []ipv.Vector{v}); p.Name() != "GIPPR"+v.String() || p.duel != nil {
		t.Fatal("1 vector should build GIPPR")
	}
	if p := NewDGIPPRN(16, 16, []ipv.Vector{v, v}); p.Name() != "2-DGIPPR" || p.duel == nil {
		t.Fatal("2 vectors should build 2-DGIPPR")
	}
	if p := NewDGIPPRN(16, 16, []ipv.Vector{v, v, v, v}); p.Name() != "4-DGIPPR" || p.duel == nil {
		t.Fatal("4 vectors should build 4-DGIPPR")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("3 vectors accepted")
		}
	}()
	NewDGIPPRN(16, 16, []ipv.Vector{v, v, v})
}

func TestPLRUVictimNeverJustPromoted(t *testing.T) {
	cfg := smallConfig()
	p := NewPLRU(cfg.Sets(), cfg.Ways)
	c := cache.New(cfg, p)
	rng := xrand.New(42)
	var last uint64 = ^uint64(0)
	for i := 0; i < 20000; i++ {
		b := rng.Uint64n(64)
		hit := c.Access(trace.Record{Gap: 1, Addr: b * 64})
		if hit && b == last {
			// Immediately re-accessing the same block must hit.
			continue
		}
		last = b
	}
	// Structural invariant: in every set the victim's position is k-1.
	for set := uint32(0); set < uint32(cfg.Sets()); set++ {
		if p.trees.Position(set, p.trees.Victim(set)) != cfg.Ways-1 {
			t.Fatalf("set %d: victim not at PLRU position", set)
		}
	}
}

func TestDGIPPRBracketIdenticalVectorsEqualGIPPR(t *testing.T) {
	cfg := testConfig()
	v := ipv.PaperWIGIPPR
	a := NewDGIPPRN(cfg.Sets(), cfg.Ways, []ipv.Vector{v, v, v, v, v, v, v, v})
	b := NewGIPPR(cfg.Sets(), cfg.Ways, v)
	ca, cb := cache.New(cfg, a), cache.New(cfg, b)
	rng := xrand.New(91)
	for i := 0; i < 30000; i++ {
		r := trace.Record{Gap: 1, Addr: rng.Uint64n(500) * 64}
		if ca.Access(r) != cb.Access(r) {
			t.Fatalf("bracket[v x8] diverged from GIPPR[v] at access %d", i)
		}
	}
}

func TestDGIPPRBracketAdapts(t *testing.T) {
	cfg := cache.L3Config
	vecs := []ipv.Vector{
		ipv.LRU(16), ipv.LIP(16), ipv.MidClimb(16), ipv.PaperWIGIPPR,
		ipv.PaperWI4DGIPPR[0], ipv.PaperWI4DGIPPR[1], ipv.PaperWI4DGIPPR[2], ipv.PaperWI4DGIPPR[3],
	}
	stream := cyclic(90<<10, 500_000)
	br := run(cfg, NewDGIPPRN(cfg.Sets(), cfg.Ways, vecs), stream)
	plru := run(cfg, NewPLRU(cfg.Sets(), cfg.Ways), stream)
	if br.Misses >= plru.Misses {
		t.Fatalf("8-vector bracket (%d misses) did not beat PLRU (%d) on thrash", br.Misses, plru.Misses)
	}
}

func TestDGIPPRBracketPanics(t *testing.T) {
	v := ipv.LRU(16)
	for i, f := range []func(){
		func() { NewDGIPPRN(16, 16, []ipv.Vector{v, v, v}) },
		func() { NewDGIPPRN(16, 16, []ipv.Vector{v, ipv.LRU(8)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d accepted", i)
				}
			}()
			f()
		}()
	}
}

// TestDGIPPROverheadCountsItsCounters pins the duel's global storage at
// n-1 counters of the configured width: 11 bits for 2-DGIPPR, the paper's
// 33 for 4-DGIPPR (Section 3.6), and 21 for the ablation's 7-bit counters.
func TestDGIPPROverheadCountsItsCounters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *GIPPR
		global int
	}{
		{"GIPPR", NewGIPPR(4096, 16, ipv.PaperWIGIPPR), 0},
		{"PLRU", NewPLRU(4096, 16), 0},
		{"2-DGIPPR", NewDGIPPR2(4096, 16, ipv.PaperWI2DGIPPR), 11},
		{"4-DGIPPR", NewDGIPPR4(4096, 16, ipv.PaperWI4DGIPPR), 33},
		{"4-DGIPPR, 7-bit counters", NewDGIPPR4WithDuel(4096, 16, ipv.PaperWI4DGIPPR, 16, 7), 21},
		{"8-DGIPPR", NewDGIPPRN(4096, 16, eightVectors()), 77},
	} {
		perSet, global := tc.p.OverheadBits()
		if perSet != 15 || global != tc.global {
			t.Errorf("%s overhead %v/%v, want 15/%d", tc.name, perSet, global, tc.global)
		}
	}
}
