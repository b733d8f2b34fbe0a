package policy

import (
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

func TestMSLRUConstructorValidation(t *testing.T) {
	bad := []func(){
		func() { NewMSLRU(0, 8, 2) },
		func() { NewMSLRU(4, 1, 1) },
		func() { NewMSLRU(4, 128, 2) }, // beyond the packed-lane domain
		func() { NewMSLRU(4, 8, 0) },
		func() { NewMSLRU(4, 8, -1) },
		func() { NewMSLRU(4, 8, 3) }, // does not divide
		func() { NewMSLRU(4, 8, 9) },
		func() { NewMSLRU(4, 16, 6) },
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
	if got := NewMSLRU(4, 8, 4).Name(); got != "4-MSLRU" {
		t.Fatalf("name %q", got)
	}
	if got := NewMSLRU(4, 64, 64).Vector(); !got.Equal(ipv.MultiStep(64, 64)) {
		t.Fatalf("vector %v", got)
	}
}

func TestDefaultMSLRUStep(t *testing.T) {
	for _, tc := range []struct{ ways, want int }{
		{16, 4}, {8, 4}, {4, 4}, {12, 4}, {2, 2}, {6, 2}, {3, 1}, {5, 1},
	} {
		if got := DefaultMSLRUStep(tc.ways); got != tc.want {
			t.Fatalf("DefaultMSLRUStep(%d) = %d, want %d", tc.ways, got, tc.want)
		}
	}
}

// mslruStream mixes reuse, scans and writes over ~1.5x the cache footprint
// so replays exercise hits, evictions and cold fills in every set.
func mslruStream(cfg cache.Config, n int, seed uint64) []trace.Record {
	rng := xrand.New(seed)
	blocks := uint64(cfg.Sets()*cfg.Ways) * 3 / 2
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Gap:   1,
			Addr:  rng.Uint64n(blocks) * uint64(cfg.BlockBytes),
			Write: rng.Intn(4) == 0,
		}
	}
	return recs
}

// replayTel replays recs through a fresh instrumented cache and returns the
// stats with the sink's final state.
func replayTel(cfg cache.Config, pol cache.Policy, recs []trace.Record) (cache.Stats, *telemetry.Sink) {
	c := cache.New(cfg, pol)
	sink := &telemetry.Sink{}
	c.SetTelemetry(sink)
	for _, r := range recs {
		c.Access(r)
	}
	return c.Stats, sink
}

// TestMSLRUStepOneMatchesTrueLRU pins the degenerate end of the family:
// with one segment MSLRU must reproduce classic LRU bit for bit — stats and
// telemetry event stream — and its final recency order must match the list
// model under the LRU vector.
func TestMSLRUStepOneMatchesTrueLRU(t *testing.T) {
	cfg := testConfig()
	recs := mslruStream(cfg, 40000, 0x51ED)
	ms := NewMSLRU(cfg.Sets(), cfg.Ways, 1)
	lru := NewTrueLRU(cfg.Sets(), cfg.Ways)
	ref := newListIPV(cfg.Sets(), ipv.LRU(cfg.Ways))
	msStats, msSink := replayTel(cfg, ms, recs)
	lruStats, lruSink := replayTel(cfg, lru, recs)
	replayTel(cfg, ref, recs)
	if msStats != lruStats {
		t.Fatalf("1-MSLRU stats %+v != true LRU %+v", msStats, lruStats)
	}
	if !reflect.DeepEqual(msSink, lruSink) {
		t.Fatal("1-MSLRU telemetry diverged from true LRU")
	}
	for set := uint32(0); set < uint32(cfg.Sets()); set++ {
		for w := 0; w < cfg.Ways; w++ {
			if mp, lp := ms.Position(set, w), ref.position(set, w); mp != lp {
				t.Fatalf("set %d way %d: position %d != LRU list's %d", set, w, mp, lp)
			}
		}
	}
}

// TestMSLRUMatchesGIPLRMultiStep is the policy's defining differential: at
// every legal (ways, step) MSLRU on the packed lanes must be
// indistinguishable from ipv.MultiStep driving the naive list model.
func TestMSLRUMatchesGIPLRMultiStep(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16, 64} {
		cfg := cache.Config{Name: "m", SizeBytes: 8 * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 1}
		n := 30000
		if testing.Short() {
			n = 4000
		}
		for step := 1; step <= ways; step *= 2 {
			recs := mslruStream(cfg, n, 0x3577^uint64(ways*1000+step))
			ms := NewMSLRU(cfg.Sets(), cfg.Ways, step)
			ref := newListIPV(cfg.Sets(), ipv.MultiStep(ways, step))
			msStats, msSink := replayTel(cfg, ms, recs)
			refStats, refSink := replayTel(cfg, ref, recs)
			if msStats != refStats {
				t.Fatalf("ways %d step %d: MSLRU %+v != list ref %+v", ways, step, msStats, refStats)
			}
			if !reflect.DeepEqual(msSink, refSink) {
				t.Fatalf("ways %d step %d: telemetry diverged", ways, step)
			}
			for set := uint32(0); set < uint32(cfg.Sets()); set++ {
				for w := 0; w < ways; w++ {
					if mp, rp := ms.Position(set, w), ref.position(set, w); mp != rp {
						t.Fatalf("ways %d step %d set %d way %d: position %d != list's %d",
							ways, step, set, w, mp, rp)
					}
				}
			}
		}
	}
}

// TestMSLRUMoveToMatchesStack drives the policy's SWAR rotation primitive
// directly against the list model with random (way, target) pairs — the
// op-level differential underneath the replay-level ones above, including
// associativities that leave parked lanes in the top word.
func TestMSLRUMoveToMatchesStack(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 12, 16, 24, 64} {
		const sets = 3
		ms := NewMSLRU(sets, ways, 1)
		ref := newListIPV(sets, ipv.LRU(ways))
		rng := xrand.New(0xD1FF ^ uint64(ways))
		rounds := 5000
		if testing.Short() {
			rounds = 500
		}
		for i := 0; i < rounds; i++ {
			set := uint32(rng.Intn(sets))
			w := rng.Intn(ways)
			target := rng.Intn(ways)
			ms.rec.MoveTo(set, w, target)
			ref.moveTo(set, w, target)
			for v := 0; v < ways; v++ {
				if mp, rp := ms.Position(set, v), ref.position(set, v); mp != rp {
					t.Fatalf("ways %d round %d: way %d at %d, list says %d", ways, i, v, mp, rp)
				}
			}
			if mv, rv := ms.Victim(set, trace.Record{}), ref.Victim(set, trace.Record{}); mv != rv {
				t.Fatalf("ways %d round %d: victim %d, list says %d", ways, i, mv, rv)
			}
		}
	}
}

// TestMSLRUStepControlsClimbRate gives the step knob behavioural teeth.
// The deterministic half: a block hit once from the LRU position jumps
// straight to MRU under step 1 but climbs only one position under the fully
// incremental step — re-reference count, not recency alone, now controls how
// protected a block is. The statistical half: the family's endpoints make
// genuinely different replacement decisions on a mixed stream, so the step
// parameter is not a renaming of LRU.
func TestMSLRUStepControlsClimbRate(t *testing.T) {
	cfg := cache.Config{Name: "m", SizeBytes: 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	for _, tc := range []struct{ step, want int }{{1, 0}, {16, 14}} {
		ms := NewMSLRU(1, 16, tc.step)
		c := cache.New(cfg, ms)
		for b := uint64(0); b < 16; b++ {
			c.Access(trace.Record{Gap: 1, Addr: b * 64})
		}
		if got := ms.Position(0, 0); got != 15 {
			t.Fatalf("step %d: block 0 at position %d after fills, want LRU", tc.step, got)
		}
		c.Access(trace.Record{Gap: 1, Addr: 0}) // one hit from the LRU position
		if got := ms.Position(0, 0); got != tc.want {
			t.Fatalf("step %d: one hit from LRU landed at %d, want %d", tc.step, got, tc.want)
		}
	}

	big := testConfig()
	recs := mslruStream(big, 60_000, 0xBEEF)
	one := runRecs(big, NewMSLRU(big.Sets(), big.Ways, 1), recs)
	many := runRecs(big, NewMSLRU(big.Sets(), big.Ways, 16), recs)
	if one.Misses == many.Misses {
		t.Fatal("1-MSLRU and 16-MSLRU agreed exactly; the step knob changed nothing")
	}
}

func TestMSLRURegistryRoundTrip(t *testing.T) {
	f, err := Lookup("mslru")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	pol := f.New(cfg.Sets(), cfg.Ways)
	ms, ok := pol.(*GIPLR)
	if !ok {
		t.Fatalf("registry built %T", pol)
	}
	if ms.Name() != "MSLRU" {
		t.Fatalf("registry name %q", ms.Name())
	}
	if !ms.Vector().Equal(ipv.MultiStep(cfg.Ways, DefaultMSLRUStep(cfg.Ways))) {
		t.Fatalf("registry vector %v, want step %d", ms.Vector(), DefaultMSLRUStep(cfg.Ways))
	}
	st := runRecs(cfg, ms, mslruStream(cfg, 5000, 7))
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate replay %+v", st)
	}
}

func TestMSLRUOverhead(t *testing.T) {
	perSet, global := NewMSLRU(4096, 16, 4).OverheadBits()
	if perSet != 64 || global != 0 {
		t.Fatalf("MSLRU overhead %v/%v", perSet, global)
	}
}
