package policy

import (
	"fmt"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/recency"
	"gippr/internal/trace"
)

// GIPLR is true-LRU replacement driven by an arbitrary insertion/promotion
// vector (paper Section 2): a full recency stack per set, with hits moving a
// block from position i to V[i] and fills inserting at V[k]. With the
// all-zero vector it is exactly classic LRU. This is the expensive
// (k·log2(k) bits per set) proof-of-concept the tree-based GIPPR approximates.
// Associativity is limited to 2..recency.MaxWays.
//
// With two or four vectors it is DGIPLR, the true-LRU counterpart of DGIPPR
// and the paper's future-work item 5 ("the full LRU version of the
// technique also deserves further study"): the vectors duel over the shared
// stacks, which quantifies what, if anything, exact recency buys over the
// tree approximation (TestDGIPLRTreeCounterpartsAgreeRoughly).
type GIPLR struct {
	vectors
	rec recency.Lanes
}

// NewGIPLR returns a GIPLR policy with the given vector. The vector's
// associativity must match ways.
func NewGIPLR(sets, ways int, v ipv.Vector) *GIPLR {
	return newGIPLR(sets, ways, []ipv.Vector{v})
}

// NewDGIPLR2 returns a 2-vector dynamic GIPLR, duelling as NewDGIPPR2 does.
func NewDGIPLR2(sets, ways int, vecs [2]ipv.Vector) *GIPLR {
	return newGIPLR(sets, ways, vecs[:])
}

// NewDGIPLR4 returns a 4-vector dynamic GIPLR, duelling as NewDGIPPR4 does.
func NewDGIPLR4(sets, ways int, vecs [4]ipv.Vector) *GIPLR {
	return newGIPLR(sets, ways, vecs[:])
}

func newGIPLR(sets, ways int, vecs []ipv.Vector) *GIPLR {
	return &GIPLR{vectors: newVectors("GIPLR", sets, ways, vecs), rec: recency.New(sets, ways)}
}

// NewTrueLRU returns classic LRU replacement (the paper's baseline).
func NewTrueLRU(sets, ways int) *GIPLR {
	p := NewGIPLR(sets, ways, ipv.LRU(ways))
	p.name = "LRU"
	return p
}

// NewLIP returns LRU-insertion replacement (Qureshi et al.'s LIP): hits
// promote to MRU, incoming blocks are inserted at the LRU position.
func NewLIP(sets, ways int) *GIPLR {
	p := NewGIPLR(sets, ways, ipv.LIP(ways))
	p.name = "LIP"
	return p
}

// NewMSLRU returns multi-step LRU (Inoue, arXiv:2112.09981), named
// "<step>-MSLRU": GIPLR under ipv.MultiStep(ways, step), so hits climb the
// stack one segment at a time instead of jumping to MRU. The step must
// divide the associativity (ipv.MultiStep panics otherwise); step 1 is
// classic true LRU.
func NewMSLRU(sets, ways, step int) *GIPLR {
	p := NewGIPLR(sets, ways, ipv.MultiStep(ways, step))
	p.name = fmt.Sprintf("%d-MSLRU", step)
	return p
}

// DefaultMSLRUStep is the registry's step choice for an associativity: 4
// when it divides the associativity (the sweet spot in the multi-step LRU
// paper's sweep), else 2, else exact LRU.
func DefaultMSLRUStep(ways int) int {
	switch {
	case ways%4 == 0:
		return 4
	case ways%2 == 0:
		return 2
	default:
		return 1
	}
}

// OnHit implements cache.Policy: promote per the vector.
func (p *GIPLR) OnHit(set uint32, way int, _ trace.Record) {
	from := p.rec.Position(set, way)
	to := p.vec(set).Promotion(from)
	if p.tel != nil {
		p.tel.Promote(from, to)
	}
	p.rec.MoveTo(set, way, to)
}

// Victim implements cache.Policy: the block in the LRU position.
func (p *GIPLR) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: move the incoming block to the insertion
// position. The cache may fill an invalid way during cold start; the move is
// applied from whatever position that way held.
func (p *GIPLR) OnFill(set uint32, way int, _ trace.Record) {
	pos := p.vec(set).Insertion()
	if p.tel != nil {
		p.tel.Insert(pos)
	}
	p.rec.MoveTo(set, way, pos)
}

// PackedLanes implements cache.PackableLanes: one-vector GIPLR (LRU, LIP,
// multi-step LRU) is by definition IPV over exact LRU with no further
// state, so a cache over it runs the inline IPV step, which moves the
// policy's own lanes in place. A duel's per-miss counter updates are
// outside the step's model, so DGIPLR returns false.
func (p *GIPLR) PackedLanes() ([]int, recency.Lanes, bool) {
	if p.duel != nil {
		return nil, recency.Lanes{}, false
	}
	return append([]int(nil), p.one...), p.rec, true
}

// Position returns way's recency position in set (0 = MRU).
func (p *GIPLR) Position(set uint32, way int) int { return p.rec.Position(set, way) }

// OverheadBits implements Overheader: k·log2(k) bits per set (Section
// 2.1.2) plus the duel's counters; an MSLRU step count is a wired constant,
// not state.
func (p *GIPLR) OverheadBits() (float64, int) {
	return stackBits(p.rec.Ways()), p.globalBits()
}

var (
	_ cache.Policy        = (*GIPLR)(nil)
	_ cache.Instrumented  = (*GIPLR)(nil)
	_ cache.PackableLanes = (*GIPLR)(nil)
	_ Overheader          = (*GIPLR)(nil)
)
