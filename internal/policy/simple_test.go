package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

func TestFIFOEvictionOrder(t *testing.T) {
	cfg := cache.Config{Name: "f", SizeBytes: 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 1}
	p := NewFIFO(cfg.Sets(), cfg.Ways)
	c := cache.New(cfg, p)
	stride := uint64(64)
	// Fill ways 0..3 with blocks 0..3.
	for b := uint64(0); b < 4; b++ {
		c.Access(trace.Record{Gap: 1, Addr: b * stride})
	}
	// Hit block 0 (FIFO ignores it), then miss: block 0 must be evicted
	// first (oldest insertion).
	c.Access(trace.Record{Gap: 1, Addr: 0})
	c.Access(trace.Record{Gap: 1, Addr: 4 * stride})
	if c.Contains(0) {
		t.Fatal("FIFO kept the oldest block despite a hit")
	}
	// Next victim is block 1.
	c.Access(trace.Record{Gap: 1, Addr: 5 * stride})
	if c.Contains(1 * stride) {
		t.Fatal("FIFO evicted out of order")
	}
	if !c.Contains(2*stride) || !c.Contains(3*stride) {
		t.Fatal("FIFO evicted a younger block")
	}
}

func TestFIFOPanicsOnHugeWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	NewFIFO(1, 256)
}

func TestRandomIsDeterministicAcrossRuns(t *testing.T) {
	cfg := testConfig()
	stream := uniformBlocks(512, 20000, 12)
	a := run(cfg, NewRandom(cfg.Sets(), cfg.Ways), stream)
	b := run(cfg, NewRandom(cfg.Sets(), cfg.Ways), stream)
	if a.Misses != b.Misses {
		t.Fatalf("random policy not reproducible: %d vs %d", a.Misses, b.Misses)
	}
}

func TestRandomNearLRUOnMixedStream(t *testing.T) {
	// Figure 4's observation: random replacement is roughly on par with
	// LRU overall. Check a generous band on a mixed stream.
	cfg := testConfig()
	stream := append(cyclic(384, 30000), uniformBlocks(128, 30000, 5)...)
	rnd := run(cfg, NewRandom(cfg.Sets(), cfg.Ways), stream)
	lru := run(cfg, NewTrueLRU(cfg.Sets(), cfg.Ways), stream)
	ratio := float64(rnd.Misses) / float64(lru.Misses)
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("Random/LRU miss ratio %.3f, expected same ballpark", ratio)
	}
}
