package cache_test

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// TestReplayAllocatesNothingPerBlock gates the walk: once the caches are
// built, Replay over a 40-block stream allocates exactly what it allocates
// over a 1-block stream — caches on the IPV step over trees and over
// lanes and on the callbacks, telemetry off and on, with a measure
// callback consuming every block's hit bits.
func TestReplayAllocatesNothingPerBlock(t *testing.T) {
	cfg := cache.Config{Name: "z", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	rng := xrand.New(0xA110C)
	stream := make([]trace.Record, 40*cache.BlockSize)
	for i := range stream {
		stream[i] = trace.Record{Addr: rng.Uint64n(2*16*16) * 64, Gap: 3, Write: rng.Intn(4) == 0}
	}
	sink := func(on bool) *telemetry.Sink {
		if on {
			return &telemetry.Sink{}
		}
		return nil
	}
	var caches []*cache.Cache
	var fills [3]int // policy fills under PLRU, true LRU and DIP
	for _, tel := range []bool{false, true} {
		for i, pol := range []cache.Policy{policy.NewPLRU(cfg.Sets(), cfg.Ways),
			policy.NewTrueLRU(cfg.Sets(), cfg.Ways), policy.NewDIP(cfg.Sets(), cfg.Ways)} {
			c := cache.New(cfg, count(pol, &fills[i]))
			if s := sink(tel); s != nil {
				c.SetTelemetry(s)
			}
			caches = append(caches, c)
		}
	}
	var hits uint64
	measure := func(blk []trace.Record, h *cache.HitBits) {
		for i := range blk {
			if h.Bit(i) {
				hits++
			}
		}
	}
	allocs := func(recs []trace.Record) float64 {
		return testing.AllocsPerRun(10, func() {
			for _, c := range caches {
				cache.Replay(recs, len(recs)/4, c, measure)
			}
		})
	}
	one, forty := allocs(stream[:cache.BlockSize]), allocs(stream)
	if forty != one {
		t.Errorf("Replay allocates %v over 40 blocks, %v over 1: want no allocation per block", forty, one)
	}
	if hits == 0 {
		t.Fatal("no cache hit; the measured blocks are vacuous")
	}
	if fills[0] != 0 || fills[1] != 0 || fills[2] == 0 {
		t.Fatalf("policy fills: %d under PLRU, %d under true LRU, %d under DIP; want the step for PLRU and LRU only",
			fills[0], fills[1], fills[2])
	}
}
