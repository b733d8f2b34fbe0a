package cache

import (
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// Level identifies where an access was satisfied.
type Level int

// Hierarchy levels, in lookup order.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelL3
	LevelMemory
)

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMemory:
		return "MEM"
	default:
		return "?"
	}
}

// Hierarchy is the three-level cache hierarchy of the paper's simulator.
type Hierarchy struct {
	L1, L2, L3 *Cache
	// DRAM is the main-memory latency in cycles.
	DRAM int
	// Instructions is the running instruction count (sum of record gaps).
	Instructions uint64

	// RecordLLC, when set before simulation, captures the stream of
	// accesses that reach the L3 into LLCStream. Each captured record's Gap
	// holds the number of instructions since the previous LLC access, so
	// the captured stream alone supports CPI estimation during replay.
	RecordLLC bool
	LLCStream []trace.Record

	gapSinceLLC uint64
}

// NewHierarchy assembles a hierarchy from three caches. Pass the policies
// you want; the paper fixes L1/L2 to true LRU and varies only L3.
func NewHierarchy(l1, l2, l3 *Cache) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2, L3: l3, DRAM: DRAMLatency}
}

// ReserveLLC pre-sizes the LLCStream capture buffer for a run of at most n
// references. The captured stream can never exceed the number of references
// pushed in, so reserving the source's record budget up front turns the
// capture loop's millions of appends into plain stores — no geometric
// regrowth, no copying of a multi-megabyte backing array per doubling.
// Callers that keep the stream long-term may copy it down to its final
// length: the budget is an upper bound, though a close one for most
// workloads (at default scale 72% of the suite's references reach the LLC).
// A capture that needs only the stream is cheaper through CaptureLLC, which
// reserves the same way and models no L3.
func (h *Hierarchy) ReserveLLC(n int) {
	if n > 0 && cap(h.LLCStream)-len(h.LLCStream) < n {
		grown := make([]trace.Record, len(h.LLCStream), len(h.LLCStream)+n)
		copy(grown, h.LLCStream)
		h.LLCStream = grown
	}
}

// SetTelemetry attaches one event sink per level (any of which may be nil
// to leave that level uninstrumented). Detach everything with three nils.
func (h *Hierarchy) SetTelemetry(l1, l2, l3 *telemetry.Sink) {
	h.L1.SetTelemetry(l1)
	h.L2.SetTelemetry(l2)
	h.L3.SetTelemetry(l3)
}

// MakeInclusive enforces inclusion: an eviction from the L3
// back-invalidates the block in L1 and L2, and an L2 eviction
// back-invalidates L1. Policies that bypass the LLC must not be used in an
// inclusive hierarchy (the bypassed block would live in L1/L2 without an L3
// copy) — the same caveat the paper notes for PDP-with-bypass.
func (h *Hierarchy) MakeInclusive() {
	h.L3.OnEviction = func(addr uint64) {
		h.L1.Invalidate(addr)
		h.L2.Invalidate(addr)
	}
	h.L2.OnEviction = func(addr uint64) {
		h.L1.Invalidate(addr)
	}
}

// Access performs one reference through the hierarchy and returns the level
// that satisfied it.
func (h *Hierarchy) Access(r trace.Record) Level {
	h.Instructions += uint64(r.Gap)
	h.gapSinceLLC += uint64(r.Gap)
	if h.L1.Access(r) {
		return LevelL1
	}
	if h.L2.Access(r) {
		return LevelL2
	}
	if h.RecordLLC {
		cr := r
		cr.Gap = llcGap(h.gapSinceLLC)
		h.LLCStream = append(h.LLCStream, cr)
	}
	h.gapSinceLLC = 0
	if h.L3.Access(r) {
		return LevelL3
	}
	return LevelMemory
}

// llcGap converts the instructions since the previous LLC reference into an
// LLC record's Gap, clamped to 2^31 so it fits the field.
func llcGap(g uint64) uint32 {
	return uint32(min(g, 1<<31))
}

// CaptureLLC returns the stream of src's references that reach the last
// level: each reference goes to l1, and on an l1 miss to l2, and the
// references that miss both are returned in order. Each record's Gap holds
// the instructions since the previous returned record, clamped to 2^31. It
// returns exactly the LLCStream a Hierarchy over l1 and l2 with RecordLLC
// set would capture, without modelling an L3: a record enters the stream
// before any L3 lookup, and a non-inclusive L3 never reaches back into L1
// or L2, so nothing the L3 does can change the stream. budget reserves
// room for that many records up front (as ReserveLLC does); the stream can
// never outgrow the references pushed in, so src's record count removes
// every regrowth copy. A budget below 1 reserves nothing.
func CaptureLLC(src trace.Source, l1, l2 *Cache, budget int) []trace.Record {
	var out []trace.Record
	if budget > 0 {
		out = make([]trace.Record, 0, budget)
	}
	var gap uint64
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		gap += uint64(r.Gap)
		if l1.Access(r) || l2.Access(r) {
			continue
		}
		r.Gap = llcGap(gap)
		out = append(out, r)
		gap = 0
	}
}

// Latency returns the access latency in cycles for a reference satisfied at
// the given level. Memory latency is DRAM on top of the L3 lookup.
func (h *Hierarchy) Latency(l Level) int {
	switch l {
	case LevelL1:
		return h.L1.cfg.HitLatency
	case LevelL2:
		return h.L2.cfg.HitLatency
	case LevelL3:
		return h.L3.cfg.HitLatency
	default:
		return h.L3.cfg.HitLatency + h.DRAM
	}
}

// Run drains a trace source through the hierarchy and returns the number of
// references processed.
func (h *Hierarchy) Run(src trace.Source) uint64 {
	var n uint64
	for {
		r, ok := src.Next()
		if !ok {
			return n
		}
		h.Access(r)
		n++
	}
}

// ResetStats zeroes the counters at every level and the instruction count
// (used after warm-up), keeping cache contents and replacement state.
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.Instructions = 0
}

// ReplayStats summarizes an LLC-only replay.
type ReplayStats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	Instructions uint64 // sum of gaps in the replayed window
}

// ReplayStream replays an LLC access stream (as captured via RecordLLC) into
// a standalone LLC with the given policy. The first warm accesses only warm
// the cache; statistics cover the remainder. This is the paper's fitness-
// evaluation path (Section 4.3: 500M instructions of warm-up, then measure).
func ReplayStream(stream []trace.Record, cfg Config, pol Policy, warm int) ReplayStats {
	return ReplayStreamTel(stream, cfg, pol, warm, nil)
}

// ReplayStreamTel is ReplayStream with an optional telemetry sink attached
// to the LLC for the duration of the replay. Warm-up events are discarded
// at the warm boundary (the sink is reset together with the cache stats),
// so the sink describes exactly the measurement window. A nil sink makes it
// identical to ReplayStream. For a Packable or PackableLanes policy (PLRU,
// one-vector GIPPR, LRU and the other one-vector GIPLRs) the LLC runs the
// inline IPV step, with the same stats, telemetry events and final policy
// state as the callbacks, so the choice needs no call-site opt-in. The LLC
// is ReplayFresh's, so its tag store is recycled across replays.
func ReplayStreamTel(stream []trace.Record, cfg Config, pol Policy, warm int, tel *telemetry.Sink) ReplayStats {
	var instrs uint64
	st := ReplayFresh(stream, warm, cfg, pol, tel, func(blk []trace.Record, _ *HitBits) {
		for i := range blk {
			instrs += uint64(blk[i].Gap)
		}
	})
	return ReplayStats{Accesses: st.Accesses, Hits: st.Hits, Misses: st.Misses, Instructions: instrs}
}
