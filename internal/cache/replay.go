package cache

import (
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// BlockSize is the number of records Replay hands each cache at a time.
// 256 records keep a block and its hit bitmap (4 words) comfortably inside
// L1 while amortizing the walk's per-block overheads; block size only
// affects throughput, never results, because blocks are modelled in stream
// order with no reordering inside or across them.
const BlockSize = 256

// HitBits is the per-block hit bitmap filled by AccessBlock: bit i set means
// record i of the block hit (or was skipped by set sampling, which the
// timing models treat as a hit — the same convention as Access's return
// value).
type HitBits [BlockSize / 64]uint64

// Bit reports record i's hit flag.
func (h *HitBits) Bit(i int) bool { return h[i>>6]>>(i&63)&1 == 1 }

// AccessBlock models up to BlockSize records in stream order, as Access
// would one at a time, and fills hits with their hit flags. A cache that
// runs the IPV step calls it directly, without Access's dispatch.
func (c *Cache) AccessBlock(recs []trace.Record, hits *HitBits) {
	*hits = HitBits{}
	if c.vec == nil {
		for i := range recs {
			if c.Access(recs[i]) {
				hits[i>>6] |= 1 << (i & 63)
			}
		}
		return
	}
	for i := range recs {
		block := recs[i].Addr >> c.blockShift
		if c.step(block, uint32(block&c.setMask), recs[i].Write) {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
}

// Replay walks a captured LLC stream through one cache in BlockSize
// blocks: the first warm records (clamped to the stream; a negative warm
// warms nothing) only warm the cache, its stats and telemetry are then
// reset, and the rest is measured. After the cache models a measured
// block, measure (when non-nil) is called with the block and its hit bits,
// so per-record consumers such as a timing model see each record after its
// own access. Callers that replay one stream under several policies walk
// it once per cache: the models share nothing but the stream, and one
// cache's tags and policy state stay in the host's caches for the whole
// walk (DESIGN.md §9). A caller that builds a cache only for one walk calls
// ReplayFresh instead.
func Replay(stream []trace.Record, warm int, c *Cache, measure func(blk []trace.Record, hits *HitBits)) {
	warm = min(max(warm, 0), len(stream))
	var hits HitBits
	for off := 0; off < warm; off += BlockSize {
		c.AccessBlock(stream[off:min(off+BlockSize, warm)], &hits)
	}
	c.ResetStats()
	for off := warm; off < len(stream); off += BlockSize {
		blk := stream[off:min(off+BlockSize, len(stream))]
		c.AccessBlock(blk, &hits)
		if measure != nil {
			measure(blk, &hits)
		}
	}
}

// ReplayFresh replays stream into a new cache of geometry cfg over pol, as
// Replay does, with tel attached for the walk when it is non-nil, and
// returns the cache's Stats. It owns the cache from build to end: New takes
// the cache's tag store from the package's pool, and ReplayFresh hands it
// back once the walk is done, so no caller ever holds a cache whose arrays
// another replay may reuse. A sequence of replays of one geometry, such as
// a grid or the GA's fitness loop, then allocates its ~640 KiB tag store
// (at the paper's 4096x16 LLC) once instead of once per replay, while every
// result stays that of a cache on newly allocated arrays, because New
// clears a recycled store to their state (DESIGN.md §9). pol's own state is
// the caller's, and pol and tel hold what the walk left in them.
func ReplayFresh(stream []trace.Record, warm int, cfg Config, pol Policy, tel *telemetry.Sink,
	measure func(blk []trace.Record, hits *HitBits)) Stats {
	c := New(cfg, pol)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	Replay(stream, warm, c, measure)
	c.release()
	return c.Stats
}
