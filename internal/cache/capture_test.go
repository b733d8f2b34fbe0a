package cache_test

import (
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/experiments"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// recordedLLC returns the LLCStream a full three-level LRU Hierarchy with
// RecordLLC set captures from recs.
func recordedLLC(recs []trace.Record) []trace.Record {
	h := cache.NewHierarchy(newLRU(cache.L1Config), newLRU(cache.L2Config), newLRU(cache.L3Config))
	h.RecordLLC = true
	h.Run(trace.NewSliceSource(recs))
	return h.LLCStream
}

func newLRU(cfg cache.Config) *cache.Cache {
	return cache.New(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
}

func captured(recs []trace.Record, budget int) []trace.Record {
	return cache.CaptureLLC(trace.NewSliceSource(recs), newLRU(cache.L1Config), newLRU(cache.L2Config), budget)
}

// TestCaptureLLCMatchesHierarchy pins the L1/L2-only capture to the
// hierarchy's recorded stream, every field of every record, on every phase
// of the four probe workloads at smoke scale.
func TestCaptureLLCMatchesHierarchy(t *testing.T) {
	n := experiments.Smoke.PhaseRecords
	for _, name := range []string{"mcf_like", "lbm_like", "sphinx3_like", "dealII_like"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for pi, ph := range w.Phases {
			recs := ph.Records(xrand.Mix(uint64(pi), 0xca97), n)
			want := recordedLLC(recs)
			got := captured(recs, n)
			if len(want) == 0 {
				t.Fatalf("%s phase %d: nothing reached the LLC", name, pi)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s phase %d: capture returned %d records, the hierarchy recorded %d, or they differ",
					name, pi, len(got), len(want))
			}
		}
	}
}

// TestCaptureLLCRandomWrites checks the same agreement on random sources
// that set every record field, writes and cores included, and that the
// capture clamps a gap over 2^31 the way the hierarchy does.
func TestCaptureLLCRandomWrites(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		recs := make([]trace.Record, 20_000)
		for i := range recs {
			recs[i] = trace.Record{
				PC:    rng.Uint64n(256) * 4,
				Addr:  rng.Uint64n(64<<10)*64 + rng.Uint64n(64),
				Gap:   uint32(1 + rng.Intn(8)),
				Write: rng.Intn(4) == 0,
				Core:  uint8(rng.Intn(4)),
			}
		}
		// A never-seen block misses both levels, so its record is captured
		// with its own gap, which is past 2^31.
		big := len(recs) / 2
		recs[big].Addr = 1 << 40
		recs[big].Gap = 3 << 30
		want := recordedLLC(recs)
		for _, budget := range []int{0, len(recs)} {
			got := captured(recs, budget)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d budget %d: capture returned %d records, the hierarchy recorded %d, or they differ",
					seed, budget, len(got), len(want))
			}
		}
		clamped := false
		for _, r := range want {
			if r.Addr == 1<<40 {
				clamped = r.Gap == 1<<31
			}
		}
		if !clamped {
			t.Fatalf("seed %d: the record after a %d-instruction gap was not captured with gap 2^31", seed, uint32(3<<30))
		}
	}
}

// TestCaptureLLCReservesBudget checks that the budget is reserved up front,
// so a capture within it never regrows its buffer.
func TestCaptureLLCReservesBudget(t *testing.T) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(i) * 64, Gap: 1}
	}
	got := captured(recs, len(recs))
	if len(got) != len(recs) || cap(got) != len(recs) {
		t.Fatalf("len %d cap %d, want %d records in a buffer of exactly the budget", len(got), cap(got), len(recs))
	}
	if none := captured(nil, 0); none != nil {
		t.Fatalf("empty source captured %v", none)
	}
}
