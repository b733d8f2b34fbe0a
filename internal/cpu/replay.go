package cpu

import (
	"gippr/internal/cache"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// ReplayResult summarizes a timed LLC-stream replay.
type ReplayResult struct {
	Instructions uint64
	Cycles       float64
	CPI          float64
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	// Skipped counts accesses to out-of-sample sets when the replayed cache
	// uses set sampling (cache.Config.SampleShift > 0); 0 at full fidelity.
	Skipped uint64
}

// WindowReplay replays a captured LLC access stream into an LLC-only cache
// with the given policy, timing it with a window model. Each record's Gap
// carries the instructions since the previous LLC access (set when the
// stream was captured), so the instructions between LLC accesses — all
// non-memory work plus L1/L2 hits, identical across LLC policies — are
// accounted as single-cycle instructions, and each LLC access costs the L3
// hit latency or L3+DRAM on a miss. The first warm records warm the cache
// untimed.
func WindowReplay(stream []trace.Record, cfg cache.Config, pol cache.Policy,
	warm int, m *WindowModel) ReplayResult {
	return MultiWindowReplay(stream, cfg, []cache.Policy{pol}, warm, []*WindowModel{m}, nil)[0]
}

// MultiWindowReplay replays one captured LLC stream through several
// independent cache models, one cache.ReplayFresh walk each: model i gets
// its own cache (policy pols[i]), whose tag store comes from cache's pool
// for the walk and goes back to it after, its own window model models[i],
// and — when sinks is non-nil — its own telemetry sink sinks[i]
// (individual entries may be nil). So a caller's sequence of replays
// reuses one tag store per geometry instead of allocating one per replay.
// Each window model is reset before its walk and stepped once per measured
// block from its cache's hit bits; warm-up never steps it, so this is the
// same as resetting it at the warm boundary. Every per-model result is
// bit-identical to a WindowReplay of the same (stream, policy) pair, with
// the sink describing exactly the timed window. Walking the stream once
// per cache, not once per block across all caches, keeps each cache's tags
// and policy state hot in the host's caches for its whole walk (DESIGN.md
// §9). pols, models and (if present) sinks must have equal length; a
// zero-length pols returns an empty slice without touching the stream.
func MultiWindowReplay(stream []trace.Record, cfg cache.Config, pols []cache.Policy,
	warm int, models []*WindowModel, sinks []*telemetry.Sink) []ReplayResult {
	if len(models) != len(pols) {
		panic("cpu: MultiWindowReplay: len(models) != len(pols)")
	}
	if sinks != nil && len(sinks) != len(pols) {
		panic("cpu: MultiWindowReplay: len(sinks) != len(pols)")
	}
	if len(pols) == 0 {
		return nil
	}
	hitLat, missLat := cfg.HitLatency, cfg.HitLatency+cache.DRAMLatency
	results := make([]ReplayResult, len(pols))
	for i, pol := range pols {
		var sink *telemetry.Sink
		if sinks != nil {
			sink = sinks[i]
		}
		m := models[i]
		m.Reset()
		st := cache.ReplayFresh(stream, warm, cfg, pol, sink, func(blk []trace.Record, hits *cache.HitBits) {
			m.stepBlock(blk, hits, hitLat, missLat)
		})
		res := ReplayResult{
			Instructions: m.Instructions(),
			Cycles:       m.Cycles(),
			Accesses:     st.Accesses,
			Hits:         st.Hits,
			Misses:       st.Misses,
			Skipped:      st.Skipped,
		}
		if res.Instructions > 0 {
			res.CPI = res.Cycles / float64(res.Instructions)
		}
		results[i] = res
	}
	return results
}
