package policy

import (
	"gippr/internal/cache"
	"gippr/internal/recency"
	"gippr/internal/trace"
)

// PIPP is promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009),
// the shared-cache policy the paper cites as the generalization of
// insertion/promotion control to multi-core partitioning (Section 6.2).
// Each core receives a partition allocation; a core's incoming blocks are
// inserted at the stack position equal to its allocation (counted from the
// LRU end), and hits promote a block by a single position with probability
// 3/4 rather than jumping to MRU. Cores that under-use their allocation
// naturally cede space because their blocks drift down — hence "pseudo"
// partitioning.
//
// As in the cited design, UCP utility monitors choose the allocations at
// run time: they start as an equal split (remainder to the lower-numbered
// cores) and are recomputed every epoch. Cores beyond the allocation table
// insert at LRU.
type PIPP struct {
	nop
	rec      recency.Lanes
	monitors []*umon
	alloc    []int // alloc[core] = partition size in ways
	ways     int
	accesses uint64
	rng      *pippRNG
}

// pippRNG is a minimal inlined xorshift so PIPP's promotion throttle stays
// allocation-free on the hot path.
type pippRNG struct{ s uint64 }

func (r *pippRNG) bool75() bool {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s&3 != 0 // 3 in 4
}

// NewPIPPDyn returns PIPP for the given core count, its allocations chosen
// by UCP utility monitors.
func NewPIPPDyn(sets, ways, cores int) *PIPP {
	validateGeometry(sets, ways)
	if cores < 1 || cores > ways {
		panic("policy: PIPP core count out of range")
	}
	p := &PIPP{
		rec:   recency.New(sets, ways),
		alloc: make([]int, cores),
		ways:  ways,
		rng:   &pippRNG{s: 0x9e3779b97f4a7c15},
	}
	for c := 0; c < cores; c++ {
		p.monitors = append(p.monitors, newUMON(ways))
		p.alloc[c] = ways / cores
		if c < ways%cores {
			p.alloc[c]++
		}
	}
	return p
}

// Name implements cache.Policy.
func (p *PIPP) Name() string { return "PIPP-dyn" }

// Allocations returns a copy of the current per-core partition sizes.
func (p *PIPP) Allocations() []int { return append([]int(nil), p.alloc...) }

func (p *PIPP) tick(set uint32, r trace.Record) {
	p.accesses++
	if set&umonSampleMask == 0 && int(r.Core) < len(p.monitors) {
		p.monitors[r.Core].access(set, r.Addr>>6)
	}
	if p.accesses%umonEpochLength == 0 {
		p.alloc = ucpAllocate(p.monitors, p.ways)
		for _, m := range p.monitors {
			m.decay()
		}
	}
}

// OnHit implements cache.Policy: single-step promotion with probability 3/4
// (never past MRU).
func (p *PIPP) OnHit(set uint32, way int, r trace.Record) {
	p.tick(set, r)
	if pos := p.rec.Position(set, way); pos > 0 && p.rng.bool75() {
		p.rec.MoveTo(set, way, pos-1)
	}
}

// OnMiss implements cache.Policy.
func (p *PIPP) OnMiss(set uint32, r trace.Record) { p.tick(set, r) }

// Victim implements cache.Policy: the LRU block.
func (p *PIPP) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: insert at the requesting core's
// allocation position, counted from the LRU end.
func (p *PIPP) OnFill(set uint32, way int, r trace.Record) {
	a := 1
	if int(r.Core) < len(p.alloc) {
		a = p.alloc[r.Core]
	}
	p.rec.MoveTo(set, way, p.ways-a)
}

// OverheadBits implements Overheader: the LRU stack, the allocation
// registers, and the sampled ATDs (tag+position per monitored line). Each
// core's monitor samples the sets with set&umonSampleMask == 0, which is
// ceil(sets/64) of them.
func (p *PIPP) OverheadBits() (float64, int) {
	monitored := (p.rec.Sets() + umonSampleMask) / (umonSampleMask + 1)
	atdBits := len(p.monitors) * monitored * p.ways * 40
	return stackBits(p.ways),
		len(p.alloc)*log2ceil(p.ways+1) + atdBits
}

var (
	_ cache.Policy = (*PIPP)(nil)
	_ Overheader   = (*PIPP)(nil)
)
