package cache_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// poolCase is one cache of the pool's differential sequence: a geometry, a
// policy over it, whether the cache must take the IPV step, and whether a
// telemetry sink is attached.
type poolCase struct {
	cfg   cache.Config
	label string
	pol   func(sets, ways int) cache.Policy
	step  bool
	tel   bool
}

func (pc poolCase) name() string {
	return fmt.Sprintf("%s/%s/step=%v/tel=%v", pc.cfg.Name, pc.label, pc.step, pc.tel)
}

// poolCases covers the step on PLRU trees and on LRU lanes, the callbacks,
// set sampling and telemetry, at 16, 64 and wider-than-64 ways. At 16
// ways New's tail parking assigns every set's whole valid word, so a
// skipped reset shows in behaviour only at 64 ways (no tail to park) and
// past 64 (a set's first valid words are never parked).
func poolCases() []poolCase {
	geom := func(name string, sets, ways int, shift uint) cache.Config {
		return cache.Config{Name: name, SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64,
			HitLatency: 30, SampleShift: shift}
	}
	gippr := func(sets, ways int) cache.Policy { return policy.NewGIPPR(sets, ways, ipv.MidClimb(ways)) }
	plru := func(sets, ways int) cache.Policy { return policy.NewPLRU(sets, ways) }
	lru := func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) }
	drrip := func(sets, ways int) cache.Policy { return policy.NewDRRIP(sets, ways) }
	srrip := func(sets, ways int) cache.Policy { return policy.NewSRRIP(sets, ways) }
	return []poolCase{
		{geom("16x16", 16, 16, 0), "GIPPR", gippr, true, false},
		{geom("16x16", 16, 16, 0), "LRU", lru, true, true},
		{geom("16x16", 16, 16, 0), "DRRIP", drrip, false, true},
		{geom("8x64", 8, 64, 0), "PLRU", plru, true, true},
		{geom("8x64", 8, 64, 0), "LRU", lru, true, false},
		{geom("8x64", 8, 64, 0), "SRRIP", srrip, false, false},
		{geom("4x128", 4, 128, 0), "SRRIP", srrip, false, true},
		{geom("4x100", 4, 100, 0), "LRU", lru, false, false},
		{geom("64x16-sampled", 64, 16, 2), "GIPPR", gippr, true, true},
		{geom("16x64-sampled", 16, 64, 2), "LRU", lru, true, false},
		{geom("8x65-sampled", 8, 65, 1), "DRRIP", drrip, false, true},
	}
}

// poolWalk replays stream through c (telemetry into sink when non-nil),
// recording every measured block's hit bits.
func poolWalk(c *cache.Cache, stream []trace.Record, warm int, sink *telemetry.Sink) []cache.HitBits {
	if sink != nil {
		c.SetTelemetry(sink)
	}
	var hits []cache.HitBits
	cache.Replay(stream, warm, c, func(_ []trace.Record, h *cache.HitBits) { hits = append(hits, *h) })
	return hits
}

// recycled returns a cache of geometry cfg over pol built on the tag store
// of an earlier cache over mk() of the same shape, which first walked a
// stream of writes over twice its capacity, so every array of the store is
// dirty: valid and dirty bits set, tags and signature bytes written.
// sync.Pool may drop a handed-back store (it does so at random under the
// race detector), so this retries until New hands the dirtied store out
// again.
func recycled(t *testing.T, cfg cache.Config, mk func() cache.Policy, pol cache.Policy) *cache.Cache {
	t.Helper()
	junk := makeStream(4*cfg.Sets()*cfg.Ways, cfg, 2, 0xD1127)
	for i := range junk {
		junk[i].Write = true
	}
	for try := 0; try < 100; try++ {
		prev := cache.New(cfg, mk())
		cache.Replay(junk, 0, prev, nil)
		old := prev.Store()
		prev.Release()
		c := cache.New(cfg, pol)
		if &c.Store()[0][0] == &old[0][0] {
			return c
		}
		c.Release()
	}
	t.Fatal("New never reused a handed-back tag store")
	return nil
}

// TestRecycledStoreMatchesFresh is the pool's differential test. For each
// cache in poolCases, in sequence, one built on a recycled, dirtied tag
// store and one built on newly allocated arrays must start with the same
// arrays, word for word, and after replaying the same stream agree on
// every counter, every measured block's hit bits, the telemetry sink and
// the policy's final state. The same replay through ReplayFresh, on
// whatever store the pool holds, must agree too.
func TestRecycledStoreMatchesFresh(t *testing.T) {
	for i, pc := range poolCases() {
		t.Run(pc.name(), func(t *testing.T) {
			mk := func() cache.Policy { return pc.pol(pc.cfg.Sets(), pc.cfg.Ways) }
			if stepRuns(pc.cfg, mk()) != pc.step {
				t.Fatalf("the IPV step runs: %v, want %v", !pc.step, pc.step)
			}
			stream := makeStream(8*pc.cfg.Sets()*pc.cfg.Ways, pc.cfg, 1.5, uint64(i)+1)
			warm := len(stream) / 4
			sink := func() *telemetry.Sink {
				if pc.tel {
					return &telemetry.Sink{}
				}
				return nil
			}
			gotPol, wantPol, freshPol := mk(), mk(), mk()
			gotSink, wantSink, freshSink := sink(), sink(), sink()

			got, want := recycled(t, pc.cfg, mk, gotPol), cache.NewFresh(pc.cfg, wantPol)
			if !reflect.DeepEqual(got.Store(), want.Store()) {
				t.Fatal("a recycled tag store differs from a new one before the walk")
			}
			gotHits, wantHits := poolWalk(got, stream, warm, gotSink), poolWalk(want, stream, warm, wantSink)
			got.Release()
			if got.Stats != want.Stats {
				t.Errorf("recycled store's stats %+v, new arrays' %+v", got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(gotHits, wantHits) {
				t.Error("recycled store's hit bits differ from new arrays'")
			}
			if !reflect.DeepEqual(gotSink, wantSink) {
				t.Error("recycled store's telemetry sink differs from new arrays'")
			}
			if !reflect.DeepEqual(gotPol, wantPol) {
				t.Error("recycled store's final policy state differs from new arrays'")
			}

			if st := cache.ReplayFresh(stream, warm, pc.cfg, freshPol, freshSink, nil); st != want.Stats {
				t.Errorf("ReplayFresh stats %+v, new arrays' %+v", st, want.Stats)
			}
			if !reflect.DeepEqual(freshSink, wantSink) || !reflect.DeepEqual(freshPol, wantPol) {
				t.Error("ReplayFresh's telemetry sink or final policy state differs from new arrays'")
			}
			if want.Stats.Evictions == 0 || want.Stats.Hits == 0 {
				t.Fatalf("stats %+v: no hit or no eviction, the walk is vacuous", want.Stats)
			}
		})
	}
}

// TestReplayFreshConcurrent runs ReplayFresh from several goroutines at
// once, over two store shapes (the step's, with signatures, and the
// callbacks'), so caches take and hand back tag stores concurrently. Every
// result must equal the same replay on new arrays. Run it under -race.
func TestReplayFreshConcurrent(t *testing.T) {
	cfg := cache.Config{Name: "c", SizeBytes: 32 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 30}
	mks := []func() cache.Policy{
		func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.MidClimb(cfg.Ways)) },
		func() cache.Policy { return policy.NewDRRIP(cfg.Sets(), cfg.Ways) },
		func() cache.Policy { return policy.NewTrueLRU(cfg.Sets(), cfg.Ways) },
	}
	const replays = 6
	streams := make([][]trace.Record, replays)
	want := make([]cache.Stats, replays)
	for i := range streams {
		streams[i] = makeStream(4096, cfg, 1.5+float64(i)/4, uint64(i)+7)
		c := cache.NewFresh(cfg, mks[i%len(mks)]())
		cache.Replay(streams[i], 1024, c, nil)
		want[i] = c.Stats
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 30 {
				i := (g + r) % replays
				if st := cache.ReplayFresh(streams[i], 1024, cfg, mks[i%len(mks)](), nil, nil); st != want[i] {
					t.Errorf("goroutine %d replay %d: stats %+v, new arrays' %+v", g, r, st, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
