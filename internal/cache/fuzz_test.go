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
// on the policy's callbacks behind scalarOnly, and requires bit-identical
// results: the hit/miss/access triple (and hence MPKI), the full telemetry
// sink with its event-ordered histograms, and the final tree (GIPPR) or
// lane (GIPLR) state. GIPPR runs under the derived vector; GIPLR runs
// under LRU, LIP, multi-step LRU and the derived vector, and under the
// derived vector again as the last level of a MakeInclusive hierarchy.
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

		for _, v := range []ipv.Vector{ipv.LRU(ways), ipv.LIP(ways), ipv.MultiStep(ways, policy.DefaultMSLRUStep(ways)), vec} {
			fast := policy.NewGIPLR(sets, ways, v)
			slow := policy.NewGIPLR(sets, ways, v)
			var fastSink, slowSink telemetry.Sink
			fastRes := cache.ReplayStreamTel(stream, cfg, fast, warm, &fastSink)
			slowRes := cache.ReplayStreamTel(stream, cfg, scalarOnly{slow}, warm, &slowSink)
			what := fmt.Sprintf("GIPLR cfg %+v vec %v warm %d", cfg, v, warm)
			if fastRes != slowRes {
				t.Fatalf("%s: step %+v != callbacks %+v", what, fastRes, slowRes)
			}
			if !reflect.DeepEqual(&fastSink, &slowSink) {
				t.Fatalf("%s: telemetry sinks diverged", what)
			}
			sameLanes(t, what, lanesOf(fast), lanesOf(slow))
		}
		fastL, slowL := policy.NewGIPLR(sets, ways, vec), policy.NewGIPLR(sets, ways, vec)
		what := fmt.Sprintf("GIPLR cfg %+v vec %v", cfg, vec)
		matchInclusive(t, what, stream, cfg, fastL, slowL)
		sameLanes(t, what+" inclusive", lanesOf(fastL), lanesOf(slowL))
	})
}
