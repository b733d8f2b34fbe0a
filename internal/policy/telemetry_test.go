package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// runTel pushes a block stream through a cache with a fresh sink attached and
// returns the sink.
func runTel(cfg cache.Config, pol cache.Policy, blocks []uint64) *telemetry.Sink {
	var sink telemetry.Sink
	c := cache.New(cfg, pol)
	c.SetTelemetry(&sink)
	for _, b := range blocks {
		c.Access(trace.Record{Gap: 1, Addr: b * 64, PC: 0x400000 + (b%7)*4})
	}
	return &sink
}

func TestPLRUTelemetryEvents(t *testing.T) {
	cfg := testConfig()
	sink := runTel(cfg, NewPLRU(cfg.Sets(), cfg.Ways), uniformBlocks(512, 20000, 1))
	if sink.Insertions.Load() != sink.Fills.Load() {
		t.Errorf("insertions = %d, want one per fill (%d)",
			sink.Insertions.Load(), sink.Fills.Load())
	}
	if sink.Promotions.Load() != sink.Hits.Load() {
		t.Errorf("promotions = %d, want one per hit (%d)",
			sink.Promotions.Load(), sink.Hits.Load())
	}
	// PLRU always inserts and promotes to MRU (position 0).
	if sink.InsertPos.Sum() != 0 {
		t.Errorf("PLRU inserted at non-zero positions (sum %d)", sink.InsertPos.Sum())
	}
	if sink.PromoteTo.Sum() != 0 {
		t.Errorf("PLRU promoted to non-zero positions (sum %d)", sink.PromoteTo.Sum())
	}
}

func TestGIPPRTelemetryInsertPosition(t *testing.T) {
	cfg := testConfig()
	v := ipv.LRU(cfg.Ways)
	v[cfg.Ways] = 13
	sink := runTel(cfg, NewGIPPR(cfg.Sets(), cfg.Ways, v), uniformBlocks(512, 20000, 2))
	n := sink.Insertions.Load()
	if n == 0 {
		t.Fatal("no insertions recorded")
	}
	// During cold start the tree is partially default, so the *recorded*
	// position is always the vector's insertion entry: V[k] = 13.
	if sink.InsertPos.Sum() != 13*n {
		t.Errorf("InsertPos sum = %d, want %d (all inserts at 13)", sink.InsertPos.Sum(), 13*n)
	}
	if sink.InsertPos.Max() != 13 {
		t.Errorf("InsertPos max = %d, want 13", sink.InsertPos.Max())
	}
}

func TestGIPLRTelemetryMatchesGIPPRCounts(t *testing.T) {
	cfg := testConfig()
	blocks := uniformBlocks(512, 20000, 3)
	sink := runTel(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), blocks)
	if sink.Insertions.Load() != sink.Fills.Load() || sink.Promotions.Load() != sink.Hits.Load() {
		t.Errorf("GIPLR event counts off: ins=%d fills=%d promo=%d hits=%d",
			sink.Insertions.Load(), sink.Fills.Load(),
			sink.Promotions.Load(), sink.Hits.Load())
	}
}

func TestDGIPPRTelemetryVotes(t *testing.T) {
	cfg := testConfig()
	vecs := [2]ipv.Vector{ipv.LRU(cfg.Ways), ipv.LIP(cfg.Ways)}
	p := NewDGIPPR2(cfg.Sets(), cfg.Ways, vecs)
	var sink telemetry.Sink
	c := cache.New(cfg, p)
	c.SetTelemetry(&sink)
	rng := xrand.New(7)
	for i := 0; i < 30000; i++ {
		c.Access(trace.Record{Gap: 1, Addr: rng.Uint64n(2048) * 64})
	}
	// Votes are recorded only on misses in leader sets, so their total is a
	// strict subset of all misses, and both candidates lead some sets.
	var votes uint64
	for i := 0; i < telemetry.MaxVotePolicies; i++ {
		votes += sink.Votes[i].Load()
	}
	if votes == 0 || votes >= sink.Misses.Load() {
		t.Errorf("leader votes = %d, want 0 < votes < misses (%d)", votes, sink.Misses.Load())
	}
	if sink.Votes[0].Load() == 0 || sink.Votes[1].Load() == 0 {
		t.Errorf("votes per candidate = %d/%d, want both non-zero",
			sink.Votes[0].Load(), sink.Votes[1].Load())
	}
}

// eightVectors is an 8-vector DGIPPR configuration at 16 ways.
func eightVectors() []ipv.Vector {
	return []ipv.Vector{
		ipv.PaperWI4DGIPPR[0], ipv.PaperWI4DGIPPR[1], ipv.PaperWI4DGIPPR[2], ipv.PaperWI4DGIPPR[3],
		ipv.PaperWIGIPPR, ipv.PaperWI2DGIPPR[0], ipv.LRU(16), ipv.LIP(16),
	}
}

// ipvConstructors lists every constructor of an IPV policy (GIPPR or
// GIPLR, alone or inside GIPPR+bypass) at 16 ways, marking the ones that
// duel vectors.
var ipvConstructors = []struct {
	name  string
	new   func(sets, ways int) cache.Policy
	duels bool
}{
	{"NewPLRU", func(s, w int) cache.Policy { return NewPLRU(s, w) }, false},
	{"NewGIPPR", func(s, w int) cache.Policy { return NewGIPPR(s, w, ipv.PaperWIGIPPR) }, false},
	{"NewDGIPPR2", func(s, w int) cache.Policy { return NewDGIPPR2(s, w, ipv.PaperWI2DGIPPR) }, true},
	{"NewDGIPPR4", func(s, w int) cache.Policy { return NewDGIPPR4(s, w, ipv.PaperWI4DGIPPR) }, true},
	{"NewDGIPPRN/8", func(s, w int) cache.Policy { return NewDGIPPRN(s, w, eightVectors()) }, true},
	{"NewGIPLR", func(s, w int) cache.Policy { return NewGIPLR(s, w, ipv.PaperGIPLR) }, false},
	{"NewTrueLRU", func(s, w int) cache.Policy { return NewTrueLRU(s, w) }, false},
	{"NewLIP", func(s, w int) cache.Policy { return NewLIP(s, w) }, false},
	{"NewMSLRU", func(s, w int) cache.Policy { return NewMSLRU(s, w, 4) }, false},
	{"NewDGIPLR2", func(s, w int) cache.Policy { return NewDGIPLR2(s, w, ipv.PaperWI2DGIPPR) }, true},
	{"NewDGIPLR4", func(s, w int) cache.Policy { return NewDGIPLR4(s, w, ipv.PaperWI4DGIPPR) }, true},
	// GIPPR+bypass duels bypass modes, not vectors, so it casts no votes.
	{"NewBypassGIPPR", func(s, w int) cache.Policy { return NewBypassGIPPR(s, w, ipv.PaperWIGIPPR) }, false},
}

// TestIPVPoliciesReportEveryEvent: every IPV policy, duelling or not,
// reports one insertion per fill and one promotion per hit, and votes
// exactly when it duels.
func TestIPVPoliciesReportEveryEvent(t *testing.T) {
	cfg := testConfig()
	for _, tc := range ipvConstructors {
		sink := runTel(cfg, tc.new(cfg.Sets(), cfg.Ways), uniformBlocks(512, 20000, 4))
		if sink.Fills.Load() == 0 || sink.Insertions.Load() != sink.Fills.Load() {
			t.Errorf("%s: insertions = %d, want one per fill (%d)",
				tc.name, sink.Insertions.Load(), sink.Fills.Load())
		}
		if sink.Hits.Load() == 0 || sink.Promotions.Load() != sink.Hits.Load() {
			t.Errorf("%s: promotions = %d, want one per hit (%d)",
				tc.name, sink.Promotions.Load(), sink.Hits.Load())
		}
		var votes uint64
		for i := range sink.Votes {
			votes += sink.Votes[i].Load()
		}
		if (votes > 0) != tc.duels {
			t.Errorf("%s: %d votes, duels = %v", tc.name, votes, tc.duels)
		}
	}
}

// TestTelemetryDoesNotPerturbSimulation: for every registered policy and
// every IPV constructor, a run with a sink attached must produce
// bit-identical stats to a run without. This is the guarantee the
// golden-fingerprint tests lean on.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cfg := testConfig()
	blocks := append(uniformBlocks(256, 8000, 11), scanWithQuickReuse(8000, 64)...)
	policies := map[string]func(sets, ways int) cache.Policy{}
	for _, name := range Names() {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		policies[name] = f.New
	}
	for _, tc := range ipvConstructors {
		policies[tc.name] = tc.new
	}
	for name, build := range policies {
		plain := run(cfg, build(cfg.Sets(), cfg.Ways), blocks)
		var sink telemetry.Sink
		c := cache.New(cfg, build(cfg.Sets(), cfg.Ways))
		c.SetTelemetry(&sink)
		for _, b := range blocks {
			c.Access(trace.Record{Gap: 1, Addr: b * 64, PC: 0x400000 + (b%7)*4})
		}
		if plain != c.Stats {
			t.Errorf("%s: stats diverged with telemetry: %+v vs %+v", name, plain, c.Stats)
		}
	}
}
