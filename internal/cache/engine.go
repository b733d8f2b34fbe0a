package cache

import (
	"math/bits"

	"gippr/internal/batchreplay"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// Engine is one LLC model as a replay walk drives it: a block of records at
// a time, a stats reset at the warm-up boundary, and a Finish that returns
// the measured counters. NewEngine picks the batched kernel or a *Cache; a
// walk never needs to know which it holds, because both report the same
// Stats and telemetry events and leave the same policy state bit for bit.
type Engine interface {
	// AccessBlock models up to batchreplay.BlockSize records in stream
	// order and fills hits with their hit flags.
	AccessBlock(recs []trace.Record, hits *batchreplay.HitBits)
	// ResetStats zeroes the counters and any attached telemetry, keeping
	// cache contents and replacement state.
	ResetStats()
	// Finish returns the counters since the last ResetStats. Both engines
	// update the policy's state as they go, so there is nothing to flush.
	Finish() Stats
}

// NewEngine returns the model of cfg under pol for a replay walk, with tel
// attached when non-nil. It is the one place the engine is chosen: the
// batched kernel when the policy opts in via batchreplay.Packable (and is
// not also a Bypasser, whose decisions are outside the kernel's model) and
// its trees have cfg's sets and ways; a *Cache otherwise.
func NewEngine(cfg Config, pol Policy, tel *telemetry.Sink) Engine {
	if k, ok := newKernel(cfg, pol); ok {
		if tel != nil {
			k.SetTelemetry(tel)
		}
		return k
	}
	c := New(cfg, pol)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	return c
}

// kernelEngine is the batched kernel reporting cache.Stats.
type kernelEngine struct{ *batchreplay.Kernel }

func newKernel(cfg Config, pol Policy) (*kernelEngine, bool) {
	pk, packable := pol.(batchreplay.Packable)
	_, bypass := pol.(Bypasser)
	if !packable || bypass {
		return nil, false
	}
	vec, trees, ok := pk.PackedIPV()
	sets := cfg.Sets()
	if !ok || trees.Sets() != sets || trees.Ways() != cfg.Ways {
		return nil, false
	}
	var sampled []bool
	if cfg.SampleShift > 0 {
		sampled = make([]bool, sets)
		for set := 0; set < sets; set++ {
			sampled[set] = cfg.InSample(uint32(set))
		}
	}
	blockShift := uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	return &kernelEngine{batchreplay.New(trees, blockShift, sampled, vec)}, true
}

// Finish returns the kernel's counters as cache.Stats.
func (e *kernelEngine) Finish() Stats { return Stats(e.Stats()) }

// AccessBlock runs Access over recs in order, recording each hit in hits.
func (c *Cache) AccessBlock(recs []trace.Record, hits *batchreplay.HitBits) {
	*hits = batchreplay.HitBits{}
	for i := range recs {
		if c.Access(recs[i]) {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
}

// Finish returns the counters since the last ResetStats.
func (c *Cache) Finish() Stats { return c.Stats }

// Replay walks a captured LLC stream through every engine in
// batchreplay.BlockSize blocks: the first warm records (clamped to the
// stream) only warm the engines, each engine's stats and telemetry are then
// reset, and the rest is measured. After engine i models a measured block,
// measure (when non-nil) is called with i, the block and its hit bits, so
// per-record consumers such as a timing model see each record after its own
// access. Engines share nothing, so each one's counters, events and final
// state are those of a replay of the stream through it alone.
func Replay(stream []trace.Record, warm int, engines []Engine,
	measure func(i int, blk []trace.Record, hits *batchreplay.HitBits)) {
	warm = min(warm, len(stream))
	var hits batchreplay.HitBits
	for off := 0; off < warm; off += batchreplay.BlockSize {
		blk := stream[off:min(off+batchreplay.BlockSize, warm)]
		for _, e := range engines {
			e.AccessBlock(blk, &hits)
		}
	}
	for _, e := range engines {
		e.ResetStats()
	}
	for off := warm; off < len(stream); off += batchreplay.BlockSize {
		blk := stream[off:min(off+batchreplay.BlockSize, len(stream))]
		for i, e := range engines {
			e.AccessBlock(blk, &hits)
			if measure != nil {
				measure(i, blk, &hits)
			}
		}
	}
}
