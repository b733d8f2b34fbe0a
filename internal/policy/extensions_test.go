package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/trace"
)

func TestRRIPVHPMatchesSRRIP(t *testing.T) {
	cfg := testConfig()
	stream := mixStreams(200, 60000, 77)
	a := run(cfg, NewRRIPV(cfg.Sets(), cfg.Ways, SRRIPHPVector), stream)
	b := run(cfg, NewSRRIP(cfg.Sets(), cfg.Ways), stream)
	if a.Misses != b.Misses {
		t.Fatalf("RRIPV[HP] misses %d != SRRIP %d", a.Misses, b.Misses)
	}
}

func TestRRIPVFPDiffersFromHP(t *testing.T) {
	cfg := testConfig()
	stream := mixStreams(200, 60000, 78)
	hp := run(cfg, NewRRIPV(cfg.Sets(), cfg.Ways, SRRIPHPVector), stream)
	fp := run(cfg, NewRRIPV(cfg.Sets(), cfg.Ways, SRRIPFPVector), stream)
	if hp.Misses == fp.Misses {
		t.Fatal("HP and FP vectors behave identically; promotion vector ignored?")
	}
}

func TestRRIPVectorValidation(t *testing.T) {
	if err := (RRIPVector{Promote: [4]uint8{0, 1, 2, 3}, Insert: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (RRIPVector{Promote: [4]uint8{4, 0, 0, 0}, Insert: 0}).Validate(); err == nil {
		t.Fatal("bad promote accepted")
	}
	if err := (RRIPVector{Insert: 9}).Validate(); err == nil {
		t.Fatal("bad insert accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRRIPV accepted invalid vector")
		}
	}()
	NewRRIPV(4, 4, RRIPVector{Insert: 9})
}

func TestRRIPVName(t *testing.T) {
	if NewRRIPV(4, 4, SRRIPHPVector).Name() == "" {
		t.Fatal("empty name")
	}
}

func TestBypassGIPPRBeatsGIPPROnStreamMix(t *testing.T) {
	// A hot loop under pure-stream interference, with the stream issued
	// from its own PC: the predictor learns the stream signature is dead
	// and bypasses it, keeping the hot working set resident. The hot loop
	// (40K blocks, ~10 per set) plus unthrottled stream insertions (~15
	// per set between reuses) does not fit; with the stream bypassed it
	// fits easily.
	cfg := cache.L3Config
	recs := make([]trace.Record, 600_000)
	hot := 0
	next := uint64(1 << 30)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = trace.Record{Gap: 1, PC: 0x1000, Addr: uint64(hot%(40<<10)) * 64}
			hot++
		} else {
			recs[i] = trace.Record{Gap: 1, PC: 0x2000, Addr: next * 64}
			next++
		}
	}
	v := ipv.LRU(16)
	plain := runRecs(cfg, NewGIPPR(cfg.Sets(), cfg.Ways, v), recs)
	byp := runRecs(cfg, NewBypassGIPPR(cfg.Sets(), cfg.Ways, v), recs)
	if float64(byp.Misses) > 0.85*float64(plain.Misses) {
		t.Fatalf("bypass arm (%d misses) not clearly below plain GIPPR (%d) under streaming",
			byp.Misses, plain.Misses)
	}
}

func TestBypassGIPPRTracksGIPPROnFriendlyWorkload(t *testing.T) {
	// When everything is reused, the duel must settle on the plain arm
	// and stay within a small margin of GIPPR.
	cfg := testConfig()
	stream := cyclic(128, 60000) // fits comfortably
	v := ipv.LRU(16)
	plain := run(cfg, NewGIPPR(cfg.Sets(), cfg.Ways, v), stream)
	byp := run(cfg, NewBypassGIPPR(cfg.Sets(), cfg.Ways, v), stream)
	if float64(byp.Misses) > 1.2*float64(plain.Misses)+50 {
		t.Fatalf("bypass variant misses %d vs plain %d on a fitting loop", byp.Misses, plain.Misses)
	}
}

// TestBypassGIPPRWinnerIsTheBypassDuel checks Winner after every access of
// a hot loop under streaming interference, on which the bypass duel comes
// to choose bypass: it must read the bypass duel, not the embedded GIPPR's
// duel-less vector.
func TestBypassGIPPRWinnerIsTheBypassDuel(t *testing.T) {
	cfg := cache.Config{Name: "b", SizeBytes: 256 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	p := NewBypassGIPPR(cfg.Sets(), cfg.Ways, ipv.LRU(16))
	c := cache.New(cfg, p)
	hot, next := uint64(0), uint64(1<<30)
	bypassed := false
	for i := 0; i < 200_000; i++ {
		r := trace.Record{Gap: 1, PC: 0x2000, Addr: next * 64}
		if i%2 == 0 {
			r = trace.Record{Gap: 1, PC: 0x1000, Addr: hot % (10 * 256) * 64}
			hot++
		} else {
			next++
		}
		c.Access(r)
		if got, want := p.Winner(), p.duel.Winner(); got != want {
			t.Fatalf("access %d: Winner() = %d, the bypass duel's winner is %d", i, got, want)
		}
		bypassed = bypassed || p.duel.Winner() == 1
	}
	if !bypassed {
		t.Fatal("the bypass duel never chose bypass; the stream does not exercise Winner")
	}
}

func TestBypassNeverFillsBypassedBlock(t *testing.T) {
	// Force the bypass arm on a leader set and verify the block is absent
	// after its (bypassed) miss.
	cfg := cache.Config{Name: "b", SizeBytes: 256 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	p := NewBypassGIPPR(cfg.Sets(), cfg.Ways, ipv.LRU(16))
	c := cache.New(cfg, p)
	// Set 1 is the leader of the bypass arm (policy index 1).
	setStride := uint64(256)
	fill := func(b uint64) { c.Access(trace.Record{Gap: 1, Addr: (1 + b*setStride) * 64}) }
	for b := uint64(0); b < 16; b++ {
		fill(b) // fill the set (invalid ways: always cached)
	}
	bypassed, cached := 0, 0
	for b := uint64(16); b < 200; b++ {
		fill(b)
		if c.Contains((1 + b*setStride) * 64) {
			cached++
		} else {
			bypassed++
		}
	}
	if bypassed == 0 {
		t.Fatal("bypass arm never bypassed on its own leader set")
	}
	if cached == 0 {
		t.Fatal("bypass arm bypassed everything; throttle broken")
	}
}

func TestBypassGIPPROverhead(t *testing.T) {
	p := NewBypassGIPPR(4096, 16, ipv.LRU(16))
	perSet, global := p.OverheadBits()
	if perSet != 15+15*16 || global != 11+shipTableSize*2 {
		t.Fatalf("overhead %v/%v", perSet, global)
	}
	if p.Name() != "GIPPR+bypass" {
		t.Fatal("name")
	}
}
