package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// shipStream builds a stream where a "hot" PC touches a small reused set
// and a "scan" PC streams one-shot blocks.
func shipStream(n int, seed uint64) []trace.Record {
	rng := xrand.New(seed)
	recs := make([]trace.Record, n)
	hot, stream := 0, uint64(1<<30)
	for i := range recs {
		if rng.Bool(0.5) {
			recs[i] = trace.Record{Gap: 1, PC: 0x1000, Addr: uint64(hot%200) * 64}
			hot++
		} else {
			recs[i] = trace.Record{Gap: 1, PC: 0x2000, Addr: stream * 64}
			stream++
		}
	}
	return recs
}

func runRecs(cfg cache.Config, pol cache.Policy, recs []trace.Record) cache.Stats {
	c := cache.New(cfg, pol)
	for _, r := range recs {
		c.Access(r)
	}
	return c.Stats
}

func TestSHiPLearnsDeadPC(t *testing.T) {
	cfg := testConfig()
	recs := shipStream(80000, 31)
	ship := runRecs(cfg, NewSHiP(cfg.Sets(), cfg.Ways), recs)
	lru := runRecs(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), recs)
	if ship.Misses >= lru.Misses {
		t.Fatalf("SHiP misses %d not below LRU %d with a dead scan PC", ship.Misses, lru.Misses)
	}
}

func TestSHiPCountersMove(t *testing.T) {
	p := NewSHiP(16, 4)
	sig := shipSignature(0x2000)
	start := p.pred.shct[sig]
	// Fill and evict without reuse repeatedly: counter must reach zero.
	r := trace.Record{Gap: 1, PC: 0x2000}
	for i := 0; i < 10; i++ {
		p.OnFill(0, 0, r)
		p.OnEvict(0, 0, r)
	}
	if p.pred.shct[sig] != 0 {
		t.Fatalf("dead signature counter = %d (started %d)", p.pred.shct[sig], start)
	}
	// Once dead, fills insert at distant RRPV.
	p.OnFill(0, 1, r)
	if got := p.set(0)[1]; got != 3 {
		t.Fatalf("dead-signature fill RRPV = %d", got)
	}
	// Reuse trains the counter back up and fills return to long RRPV.
	for i := 0; i < 4; i++ {
		p.OnFill(0, 2, r)
		p.OnHit(0, 2, r)
	}
	p.OnFill(0, 3, r)
	if got := p.set(0)[3]; got != 2 {
		t.Fatalf("live-signature fill RRPV = %d", got)
	}
}

func TestSHiPOutcomeBitResets(t *testing.T) {
	p := NewSHiP(16, 4)
	r := trace.Record{Gap: 1, PC: 0x3000}
	p.OnFill(0, 0, r)
	p.OnHit(0, 0, r)
	if !p.pred.reused[0] {
		t.Fatal("outcome bit not set on hit")
	}
	p.OnFill(0, 0, r)
	if p.pred.reused[0] {
		t.Fatal("outcome bit not cleared on refill")
	}
}

func TestSHiPHitIncrementsOnce(t *testing.T) {
	p := NewSHiP(16, 4)
	r := trace.Record{Gap: 1, PC: 0x4000}
	sig := shipSignature(0x4000)
	base := p.pred.shct[sig]
	p.OnFill(0, 0, r)
	p.OnHit(0, 0, r)
	p.OnHit(0, 0, r)
	p.OnHit(0, 0, r)
	if got := p.pred.shct[sig]; got != base+1 {
		t.Fatalf("counter after repeated hits = %d, want %d", got, base+1)
	}
}

func TestSHiPSignatureInRange(t *testing.T) {
	for _, pc := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if s := shipSignature(pc); int(s) >= shipTableSize {
			t.Fatalf("signature %d out of table", s)
		}
	}
}
