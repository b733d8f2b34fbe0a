package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

// pippConfig is one set of 8 ways.
var pippConfig = cache.Config{Name: "p", SizeBytes: 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 1}

func TestPIPPEqualSplit(t *testing.T) {
	p := NewPIPPDyn(16, 16, 3)
	got := p.Allocations()
	want := []int{6, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocations %v, want %v", got, want)
		}
	}
}

func TestPIPPInsertionPosition(t *testing.T) {
	// Three cores split 8 ways [3, 3, 2] until the first UMON epoch, so
	// cores 0 and 1 insert at position 5 (8-3), core 2 at 6 (8-2), and a
	// core beyond the table at the LRU position 7.
	p := NewPIPPDyn(pippConfig.Sets(), pippConfig.Ways, 3)
	c := cache.New(pippConfig, p)
	for b := uint64(0); b < 8; b++ { // fill every way
		c.Access(trace.Record{Gap: 1, Addr: b * 64})
	}
	for i, tc := range []struct {
		core uint8
		want int
	}{{0, 5}, {1, 5}, {2, 6}, {9, 7}} {
		way := p.rec.Victim(0) // the way the miss below refills
		addr := uint64(100+i) * 64
		c.Access(trace.Record{Gap: 1, Addr: addr, Core: tc.core})
		if !c.Contains(addr) {
			t.Fatalf("core %d: block not filled", tc.core)
		}
		if got := p.rec.Position(0, way); got != tc.want {
			t.Errorf("core %d inserted at position %d, want %d", tc.core, got, tc.want)
		}
	}
}

func TestPIPPPromotionIsStepwise(t *testing.T) {
	// One core owns all 8 ways, so fills insert at MRU and block 0, filled
	// first into way 0, ends at the LRU position. Hits on it must climb at
	// most one position each, never jump to MRU, and reach MRU in the end.
	p := NewPIPPDyn(pippConfig.Sets(), pippConfig.Ways, 1)
	c := cache.New(pippConfig, p)
	for b := uint64(0); b < 8; b++ {
		c.Access(trace.Record{Gap: 1, Addr: b * 64})
	}
	prev := p.rec.Position(0, 0)
	if prev != 7 {
		t.Fatalf("oldest block at position %d, want 7", prev)
	}
	for i := 0; i < 40 && prev > 0; i++ {
		if !c.Access(trace.Record{Gap: 1, Addr: 0}) {
			t.Fatal("resident block missed")
		}
		cur := p.rec.Position(0, 0)
		if cur != prev && cur != prev-1 {
			t.Fatalf("promotion moved from %d to %d", prev, cur)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("block stuck at position %d after 40 hits", prev)
	}
}

func TestPIPPDynAdaptsAllocations(t *testing.T) {
	// Core 0 streams (no reuse); core 1 loops over a reusable set. After
	// enough epochs the monitors must shift ways to core 1.
	cfg := cache.Config{Name: "u", SizeBytes: 64 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	p := NewPIPPDyn(cfg.Sets(), cfg.Ways, 2)
	c := cache.New(cfg, p)
	next := uint64(1 << 20)
	hot := 0
	for i := 0; i < 3*umonEpochLength; i++ {
		if i%2 == 0 {
			c.Access(trace.Record{Gap: 1, Addr: next * 64, Core: 0})
			next++
		} else {
			c.Access(trace.Record{Gap: 1, Addr: uint64(hot%600) * 64, Core: 1})
			hot++
		}
	}
	alloc := p.Allocations()
	if alloc[1] <= alloc[0] {
		t.Fatalf("allocations %v: the reusing core did not win ways", alloc)
	}
}

func TestPIPPDynBeatsLRUWithStreamingCoRunner(t *testing.T) {
	cfg := testConfig()
	recs := make([]trace.Record, 150_000)
	next := uint64(1 << 20)
	hot := 0
	for i := range recs {
		if i%2 == 0 {
			recs[i] = trace.Record{Gap: 1, Addr: next * 64, Core: 0}
			next++
		} else {
			recs[i] = trace.Record{Gap: 1, Addr: uint64(hot%200) * 64, Core: 1}
			hot++
		}
	}
	lru := runRecs(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), recs)
	dyn := runRecs(cfg, NewPIPPDyn(cfg.Sets(), cfg.Ways, 2), recs)
	if dyn.Misses >= lru.Misses {
		t.Fatalf("PIPP-dyn misses %d not below LRU %d", dyn.Misses, lru.Misses)
	}
}

func TestPIPPDynConstructorValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewPIPPDyn(16, 16, 0) },
		func() { NewPIPPDyn(16, 16, 17) },
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

func TestPIPPDynOverheadCountsATD(t *testing.T) {
	p := NewPIPPDyn(4096, 16, 4)
	perSet, global := p.OverheadBits()
	if perSet != 64 {
		t.Fatalf("per-set bits %v, want the 64-bit LRU stack", perSet)
	}
	if global < 4*64*16*40 { // 4 cores x 64 sampled sets x 16 ways x ~tag
		t.Fatalf("ATD storage undercounted: %d", global)
	}
	if p.Name() != "PIPP-dyn" {
		t.Fatal("name")
	}
}

// TestPIPPDynOverheadFollowsGeometry charges the sets the monitors sample,
// ceil(sets/64) per core: 4 cores x 16 ways x 40 bits per monitored line,
// plus 4 five-bit allocation registers.
func TestPIPPDynOverheadFollowsGeometry(t *testing.T) {
	for _, tc := range []struct{ sets, global int }{
		{32, 2_580},
		{256, 10_260},
		{4096, 163_860},
	} {
		if _, global := NewPIPPDyn(tc.sets, 16, 4).OverheadBits(); global != tc.global {
			t.Errorf("%d sets: %d global bits, want %d", tc.sets, global, tc.global)
		}
	}
}
