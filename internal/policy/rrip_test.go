package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

func TestRRIPVictimAging(t *testing.T) {
	p := NewSRRIP(1, 4)
	rr := p.set(0)
	// All empty ways start at max: the first way is the victim.
	if v := p.Victim(0, trace.Record{}); v != 0 {
		t.Fatalf("initial victim %d", v)
	}
	// Give everyone low RRPVs; victim search must age until one saturates.
	rr[0], rr[1], rr[2], rr[3] = 0, 1, 2, 1
	if v := p.Victim(0, trace.Record{}); v != 2 {
		t.Fatalf("victim %d, want 2 (first to reach max)", v)
	}
	// Aging must have bumped everyone by the same amount (one round).
	if rr[0] != 1 || rr[1] != 2 || rr[3] != 2 {
		t.Fatalf("aging wrong: %v", rr)
	}
}

func TestRRIPVictimLeftmostTieBreak(t *testing.T) {
	p := NewSRRIP(1, 4)
	rr := p.set(0)
	rr[0], rr[1], rr[2], rr[3] = 3, 3, 3, 3
	if v := p.Victim(0, trace.Record{}); v != 0 {
		t.Fatalf("tie-break victim %d", v)
	}
}

func TestSRRIPInsertsAtLong(t *testing.T) {
	p := NewSRRIP(4, 4)
	p.OnFill(0, 2, trace.Record{})
	if got := p.set(0)[2]; got != 2 {
		t.Fatalf("fill RRPV = %d", got)
	}
	p.OnHit(0, 2, trace.Record{})
	if got := p.set(0)[2]; got != 0 {
		t.Fatalf("hit RRPV = %d", got)
	}
}

func TestBRRIPMostlyDistant(t *testing.T) {
	p := NewBRRIP(4, 4)
	distant, long := 0, 0
	for i := 0; i < 3200; i++ {
		p.OnFill(0, 0, trace.Record{})
		switch p.set(0)[0] {
		case 3:
			distant++
		case 2:
			long++
		default:
			t.Fatalf("unexpected RRPV %d", p.set(0)[0])
		}
	}
	if long == 0 {
		t.Fatal("BRRIP never inserted at long RRPV")
	}
	// Expected 1/32 of 3200 = 100 long inserts; allow wide slack.
	if long < 40 || long > 220 {
		t.Fatalf("BRRIP long inserts = %d of 3200", long)
	}
	if distant < 2900 {
		t.Fatalf("BRRIP distant inserts = %d of 3200", distant)
	}
}

func TestSRRIPResistsScanBetterThanLRU(t *testing.T) {
	// A hot working set under one-shot stream interference: SRRIP inserts
	// strangers at distant RRPV, protecting the hot blocks LRU would evict.
	cfg := testConfig()
	stream := mixStreams(200, 60000, 4)
	sr := run(cfg, NewSRRIP(cfg.Sets(), cfg.Ways), stream)
	lr := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	if sr.Misses >= lr.Misses {
		t.Fatalf("SRRIP misses %d not below LRU %d under scan interference", sr.Misses, lr.Misses)
	}
}

func TestDRRIPBeatsLRUOnThrash(t *testing.T) {
	cfg := cache.L3Config
	stream := cyclic(90<<10, 500_000)
	pol := NewDRRIP(cfg.Sets(), cfg.Ways)
	dr := run(cfg, pol, stream)
	lr := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	if float64(dr.Misses) > 0.7*float64(lr.Misses) {
		t.Fatalf("DRRIP misses %d, LRU %d: expected a large win on thrash", dr.Misses, lr.Misses)
	}
	if pol.Winner() != 1 {
		t.Fatalf("DRRIP winner = %d, want BRRIP (1) on thrash", pol.Winner())
	}
}

func TestDRRIPTracksSRRIPOnFriendlyWorkload(t *testing.T) {
	cfg := testConfig()
	stream := mixStreams(200, 60000, 8)
	dr := run(cfg, NewDRRIP(cfg.Sets(), cfg.Ways), stream)
	sr := run(cfg, NewSRRIP(cfg.Sets(), cfg.Ways), stream)
	// Dueling overhead should keep DRRIP within a few percent of the
	// better static policy.
	if float64(dr.Misses) > 1.10*float64(sr.Misses) {
		t.Fatalf("DRRIP misses %d too far above SRRIP %d", dr.Misses, sr.Misses)
	}
}

func TestNRUVictimSelection(t *testing.T) {
	p := NewNRU(4, 4)
	r := trace.Record{}
	// Mark ways 0 and 1 referenced.
	p.OnFill(0, 0, r)
	p.OnFill(0, 1, r)
	if v := p.Victim(0, r); v != 2 {
		t.Fatalf("victim %d, want first unreferenced way 2", v)
	}
	// Saturate: all referenced -> clear and pick way 0.
	p.OnFill(0, 2, r)
	p.OnFill(0, 3, r)
	if v := p.Victim(0, r); v != 0 {
		t.Fatalf("victim after saturation %d", v)
	}
	// The clear must have reset the bits: every RRPV back at 1.
	if p.set(0)[1] != 1 {
		t.Fatal("reference bits not cleared")
	}
}

func TestNRUApproximatesLRUBehaviour(t *testing.T) {
	cfg := testConfig()
	stream := mixStreams(100, 40000, 3)
	nru := run(cfg, NewNRU(cfg.Sets(), cfg.Ways), stream)
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	ratio := float64(nru.Misses) / float64(lru.Misses)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("NRU/LRU miss ratio %.3f, expected rough parity", ratio)
	}
}
