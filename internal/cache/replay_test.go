package cache_test

import (
	"testing"

	"gippr/internal/batchreplay"
	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// TestReplayAllocatesNothingPerBlock gates the shared walk: once the engines
// are built, Replay over a 40-block stream allocates exactly what it
// allocates over a 1-block stream — kernel and scalar engines, telemetry off
// and on, with a measure callback consuming every block's hit bits.
func TestReplayAllocatesNothingPerBlock(t *testing.T) {
	cfg := cache.Config{Name: "z", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	rng := xrand.New(0xA110C)
	stream := make([]trace.Record, 40*batchreplay.BlockSize)
	for i := range stream {
		stream[i] = trace.Record{Addr: rng.Uint64n(2*16*16) * 64, Gap: 3, Write: rng.Intn(4) == 0}
	}
	sink := func(on bool) *telemetry.Sink {
		if on {
			return &telemetry.Sink{}
		}
		return nil
	}
	var engines []cache.Engine
	for _, tel := range []bool{false, true} {
		kernel := cache.NewEngine(cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways), sink(tel))
		if _, scalar := kernel.(*cache.Cache); scalar {
			t.Fatal("PLRU did not engage the kernel")
		}
		scalar := cache.NewEngine(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways), sink(tel))
		if _, ok := scalar.(*cache.Cache); !ok {
			t.Fatal("true LRU engaged the kernel")
		}
		engines = append(engines, kernel, scalar)
	}
	var hits uint64
	measure := func(_ int, blk []trace.Record, h *batchreplay.HitBits) {
		for i := range blk {
			if h.Bit(i) {
				hits++
			}
		}
	}
	allocs := func(recs []trace.Record) float64 {
		return testing.AllocsPerRun(10, func() {
			cache.Replay(recs, len(recs)/4, engines, measure)
		})
	}
	one, forty := allocs(stream[:batchreplay.BlockSize]), allocs(stream)
	if forty != one {
		t.Errorf("Replay allocates %v over 40 blocks, %v over 1: want no allocation per block", forty, one)
	}
	if hits == 0 {
		t.Fatal("no engine hit; the measured blocks are vacuous")
	}
}
