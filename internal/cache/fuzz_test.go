package cache_test

import (
	"fmt"
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// FuzzBatchedReplayConsistency drives arbitrary record streams and
// geometries through ReplayStreamTel twice, once on the IPV step and once
// on GIPPR's callbacks behind scalarOnly, and requires bit-identical
// results: the hit/miss/access triple (and hence MPKI), the full telemetry
// sink with its event-ordered histograms, and the final policy tree state.
// The input encodes the stream as (addr byte, gap byte) pairs — the
// FuzzMultiRunConsistency convention — plus geometry selectors:
// associativity and set-count exponents, an optional sampling shift, a
// warm length, and a seed that derives the IPV. Every byte of divergence
// the fuzzer can find is a step bug by definition; the callbacks are the
// semantic reference.
func FuzzBatchedReplayConsistency(f *testing.F) {
	f.Add([]byte{0, 1, 64, 1, 128, 2, 0, 1}, uint8(1), uint8(2), uint8(0), uint8(2), uint64(0))
	f.Add([]byte{7, 3, 7, 3, 9, 1, 200, 5, 13, 2}, uint8(2), uint8(0), uint8(1), uint8(0), uint64(0x1234))
	f.Add([]byte{255, 255, 0, 0, 128, 128, 64, 9}, uint8(0), uint8(3), uint8(0), uint8(4), uint64(99))
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}, uint8(5), uint8(1), uint8(1), uint8(7), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, waysExp, setsExp, shiftByte, warmByte uint8, vecSeed uint64) {
		if len(data) < 2 || len(data) > 1024 {
			t.Skip()
		}
		ways := 2 << (waysExp % 6) // 2..64, the full packed-tree domain
		sets := 1 << (setsExp % 4) // 1..8 sets so tiny caches still evict
		stream := make([]trace.Record, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			stream = append(stream, trace.Record{
				Addr:  uint64(data[i]) * 64,
				Gap:   uint32(data[i+1]%64) + 1,
				Write: data[i]&1 == 1,
			})
		}
		cfg := cache.Config{Name: "fz", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64,
			HitLatency: 30}
		if shift, err := cfg.CheckSampleShift(int(shiftByte % 4)); err == nil {
			cfg.SampleShift = shift
		}
		warm := int(warmByte) % (len(stream) + 1)
		vec := ipv.New(ways)
		s := vecSeed
		for i := range vec {
			s = s*6364136223846793005 + 1442695040888963407
			vec[i] = int(s>>33) % ways
		}

		fast := policy.NewGIPPR(sets, ways, vec)
		slow := policy.NewGIPPR(sets, ways, vec)
		var fastSink, slowSink telemetry.Sink
		fastRes := cache.ReplayStreamTel(stream, cfg, fast, warm, &fastSink)
		slowRes := cache.ReplayStreamTel(stream, cfg, scalarOnly{slow}, warm, &slowSink)

		if fastRes != slowRes {
			t.Fatalf("step diverged from callbacks:\nstep      %+v\ncallbacks %+v\ncfg %+v vec %v warm %d",
				fastRes, slowRes, cfg, vec, warm)
		}
		if !reflect.DeepEqual(&fastSink, &slowSink) {
			t.Fatalf("telemetry sinks diverged:\nstep      %+v\ncallbacks %+v\ncfg %+v vec %v warm %d",
				fastSink, slowSink, cfg, vec, warm)
		}
		sameTrees(t, fmt.Sprintf("cfg %+v vec %v warm %d", cfg, vec, warm), treesOf(fast), treesOf(slow))
	})
}
