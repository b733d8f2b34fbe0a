package policy

import (
	"fmt"

	"gippr/internal/cache"
	"gippr/internal/recency"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// pippPromoteProb is PIPP's single-step promotion probability (Xie & Loh
// use 3/4 for their baseline configuration).
const pippPromoteProb = 0.75

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
// This implementation uses fixed allocations (equal by default) rather than
// the original's UCP-style utility monitors; the monitors choose the
// allocations but do not change the insertion/promotion mechanism under
// study. Single-core traces (Core always 0) degrade to LIP with
// stepwise promotion.
type PIPP struct {
	nop
	rec   recency.Lanes
	alloc []int // alloc[core] = partition size in ways
	rng   *xrand.RNG
}

// NewPIPP returns a PIPP policy with explicit per-core allocations, which
// must be positive and sum to at most the associativity.
func NewPIPP(sets, ways int, alloc []int) *PIPP {
	validateGeometry(sets, ways)
	if len(alloc) == 0 {
		panic("policy: PIPP needs at least one core allocation")
	}
	total := 0
	for c, a := range alloc {
		if a < 1 || a > ways {
			panic(fmt.Sprintf("policy: PIPP allocation %d for core %d out of range", a, c))
		}
		total += a
	}
	if total > ways {
		panic(fmt.Sprintf("policy: PIPP allocations sum to %d > %d ways", total, ways))
	}
	return &PIPP{
		rec:   recency.New(sets, ways),
		alloc: append([]int(nil), alloc...),
		rng:   xrand.New(0x919),
	}
}

// NewPIPPEqual returns PIPP with the associativity split equally among
// cores (remainder to the lower-numbered cores).
func NewPIPPEqual(sets, ways, cores int) *PIPP {
	if cores < 1 || cores > ways {
		panic("policy: PIPP core count out of range")
	}
	alloc := make([]int, cores)
	for i := range alloc {
		alloc[i] = ways / cores
		if i < ways%cores {
			alloc[i]++
		}
	}
	return NewPIPP(sets, ways, alloc)
}

// Name implements cache.Policy.
func (p *PIPP) Name() string { return fmt.Sprintf("PIPP%v", p.alloc) }

// Allocations returns a copy of the per-core partition sizes.
func (p *PIPP) Allocations() []int { return append([]int(nil), p.alloc...) }

// OnHit implements cache.Policy: promote by one position with probability
// 3/4 (never past MRU).
func (p *PIPP) OnHit(set uint32, way int, _ trace.Record) {
	if pos := p.rec.Position(set, way); pos > 0 && p.rng.Bool(pippPromoteProb) {
		p.rec.MoveTo(set, way, pos-1)
	}
}

// Victim implements cache.Policy: the LRU block.
func (p *PIPP) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: insert at the requesting core's
// allocation position, counted from the LRU end. Unknown cores (beyond the
// allocation table) insert at LRU.
func (p *PIPP) OnFill(set uint32, way int, r trace.Record) {
	a := 1
	if int(r.Core) < len(p.alloc) {
		a = p.alloc[r.Core]
	}
	p.rec.MoveTo(set, way, p.rec.Ways()-a)
}

// OverheadBits implements Overheader: the LRU stack plus the allocation
// registers.
func (p *PIPP) OverheadBits() (float64, int) {
	return stackBits(p.rec.Ways()), len(p.alloc) * log2ceil(p.rec.Ways()+1)
}

var (
	_ cache.Policy = (*PIPP)(nil)
	_ Overheader   = (*PIPP)(nil)
)
