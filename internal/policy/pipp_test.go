package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

func TestPIPPConstructorValidation(t *testing.T) {
	bad := []func(){
		func() { NewPIPP(4, 4, nil) },
		func() { NewPIPP(4, 4, []int{0, 2}) },
		func() { NewPIPP(4, 4, []int{3, 3}) }, // sums beyond ways
		func() { NewPIPPEqual(4, 4, 0) },
		func() { NewPIPPEqual(4, 4, 5) },
	}
	for i, f := range bad {
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

func TestPIPPEqualSplit(t *testing.T) {
	p := NewPIPPEqual(16, 16, 3)
	got := p.Allocations()
	want := []int{6, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocations %v, want %v", got, want)
		}
	}
}

func TestPIPPInsertionPosition(t *testing.T) {
	// One set, 8 ways, allocations [6, 2]: core 0 inserts at position 2
	// (8-6), core 1 at position 6 (8-2).
	cfg := cache.Config{Name: "p", SizeBytes: 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 1}
	p := NewPIPP(cfg.Sets(), cfg.Ways, []int{6, 2})
	c := cache.New(cfg, p)
	for b := uint64(0); b < 8; b++ { // fill
		c.Access(trace.Record{Gap: 1, Addr: b * 64, Core: 0})
	}
	c.Access(trace.Record{Gap: 1, Addr: 100 * 64, Core: 0})
	// Find the newly inserted block's position: way of block 100.
	st := &p.rec
	found := -1
	for w := 0; w < 8; w++ {
		if st.Position(0, w) == 2 {
			found = w
		}
	}
	if found < 0 {
		t.Fatal("no way at core 0's insertion position")
	}
	c.Access(trace.Record{Gap: 1, Addr: 101 * 64, Core: 1})
	// Core 1's block lands at position 6.
	c.Access(trace.Record{Gap: 1, Addr: 102 * 64, Core: 9}) // unknown core -> LRU insert
	_ = found
}

func TestPIPPPromotionIsStepwise(t *testing.T) {
	cfg := cache.Config{Name: "p", SizeBytes: 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 1}
	p := NewPIPP(cfg.Sets(), cfg.Ways, []int{4})
	c := cache.New(cfg, p)
	for b := uint64(0); b < 8; b++ {
		c.Access(trace.Record{Gap: 1, Addr: b * 64})
	}
	// Hit the block at the LRU position repeatedly: its position must only
	// ever decrease by one per hit (probabilistically), never jump to 0.
	st := &p.rec
	victim := st.Victim(0)
	block := uint64(0)
	for w, b := 0, uint64(0); b < 8; b++ {
		_ = w
		if c.Contains(b*64) && st.Position(0, int(b)) == 7 {
			block = b
		}
	}
	_ = victim
	prev := st.Position(0, int(block))
	for i := 0; i < 20 && prev > 0; i++ {
		c.Access(trace.Record{Gap: 1, Addr: block * 64})
		cur := st.Position(0, int(block))
		if cur < prev-1 {
			t.Fatalf("promotion jumped from %d to %d", prev, cur)
		}
		prev = cur
	}
}

func TestPIPPProtectsSmallPartition(t *testing.T) {
	// Core 0 streams (huge working set), core 1 loops over a set that
	// fits its partition. Under LRU the stream flushes core 1; under PIPP
	// the stream inserts near LRU and cannot displace core 1's promoted
	// blocks.
	cfg := testConfig() // 16 sets x 16 ways
	recs := make([]trace.Record, 120_000)
	next := uint64(1 << 20)
	hot := 0
	for i := range recs {
		if i%2 == 0 {
			recs[i] = trace.Record{Gap: 1, Addr: next * 64, Core: 0}
			next++
		} else {
			// 200 hot blocks over 16 sets: ~12.5 per set, which plus the
			// interleaved stream exceeds LRU's reach but fits core 1's
			// 14-way partition once the stream is pinned at LRU.
			recs[i] = trace.Record{Gap: 1, Addr: uint64(hot%200) * 64, Core: 1}
			hot++
		}
	}
	lru := runRecs(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), recs)
	pipp := runRecs(cfg, NewPIPP(cfg.Sets(), cfg.Ways, []int{2, 14}), recs)
	if pipp.Misses >= lru.Misses {
		t.Fatalf("PIPP misses %d not below LRU %d with a streaming co-runner", pipp.Misses, lru.Misses)
	}
}

func TestPIPPOverheadIncludesAllocations(t *testing.T) {
	p := NewPIPP(4096, 16, []int{8, 8})
	perSet, global := p.OverheadBits()
	if perSet != 64 {
		t.Fatalf("per-set bits %v", perSet)
	}
	if global == 0 {
		t.Fatal("allocation registers not counted")
	}
}
