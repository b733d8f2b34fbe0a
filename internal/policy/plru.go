package policy

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/plrutree"
	"gippr/internal/trace"
)

// GIPPR is the paper's main contribution (Section 3.4): tree-based
// PseudoLRU whose insertion and promotion are driven by an evolved IPV. A
// hit on a block at PseudoLRU-stack position i rewrites its leaf-to-root
// path so it occupies position V[i]; a fill places the incoming block at
// position V[k]; the victim is the PLRU block (position k-1). Storage is
// identical to plain PseudoLRU: k-1 bits per set.
//
// With the all-zero vector it is standard tree PseudoLRU (Section 3.1,
// NewPLRU). With 2, 4 or more vectors it is DGIPPR (Section 3.5): leader
// sets per vector duel through counters, follower sets apply the winning
// vector, and the PseudoLRU bits are shared across vectors.
type GIPPR struct {
	vectors
	trees plrutree.Trees
}

// NewGIPPR returns a GIPPR policy with the given vector.
func NewGIPPR(sets, ways int, v ipv.Vector) *GIPPR {
	return NewDGIPPRN(sets, ways, []ipv.Vector{v})
}

// NewPLRU returns tree-based PseudoLRU replacement: GIPPR under the all-zero
// vector, so hits and fills promote to the PMRU position. ways must be a
// power of two.
func NewPLRU(sets, ways int) *GIPPR {
	validateGeometry(sets, ways)
	p := NewGIPPR(sets, ways, ipv.LRU(ways))
	p.name = "PLRU"
	return p
}

// NewDGIPPR2 returns a 2-vector DGIPPR with the paper's duel configuration:
// 32 leader sets per vector and a single 11-bit PSEL counter.
func NewDGIPPR2(sets, ways int, vecs [2]ipv.Vector) *GIPPR {
	return NewDGIPPRN(sets, ways, vecs[:])
}

// NewDGIPPR4 returns a 4-vector DGIPPR with the paper's duel configuration:
// Loh's multi-set-dueling with two pair counters and a meta counter. The
// paper recommends this configuration ("we recommend that PseudoLRU
// insertion and promotion be deployed using at least four IPVs").
func NewDGIPPR4(sets, ways int, vecs [4]ipv.Vector) *GIPPR {
	return NewDGIPPRN(sets, ways, vecs[:])
}

// NewDGIPPR4WithDuel returns a 4-vector DGIPPR with an explicit leader-set
// count and counter width, for the set-dueling ablation studies.
func NewDGIPPR4WithDuel(sets, ways int, vecs [4]ipv.Vector, leaders, counterBits int) *GIPPR {
	p := NewDGIPPR4(sets, ways, vecs)
	p.duel = dueling.NewDuel(sets, 4, leaders, counterBits)
	p.counterBits = counterBits
	return p
}

// NewDGIPPRN returns GIPPR over one vector or DGIPPR duelling any
// power-of-two number of them. The paper caps its study at four vectors
// ("extending beyond four vectors yields diminishing returns"); eight let
// the ablation benches reproduce that observation rather than take it on
// faith.
func NewDGIPPRN(sets, ways int, vecs []ipv.Vector) *GIPPR {
	return &GIPPR{vectors: newVectors("GIPPR", sets, ways, vecs), trees: plrutree.New(sets, ways)}
}

// OnHit implements cache.Policy: move the block from its PseudoLRU position
// i to V[i].
func (p *GIPPR) OnHit(set uint32, way int, _ trace.Record) {
	from := p.trees.Position(set, way)
	to := p.vec(set).Promotion(from)
	if p.tel != nil {
		p.tel.Promote(from, to)
	}
	p.trees.SetPosition(set, way, to)
}

// OnFill implements cache.Policy: place the incoming block at V[k].
func (p *GIPPR) OnFill(set uint32, way int, _ trace.Record) {
	pos := p.vec(set).Insertion()
	if p.tel != nil {
		p.tel.Insert(pos)
	}
	p.trees.SetPosition(set, way, pos)
}

// Victim implements cache.Policy: the PLRU block (position k-1).
func (p *GIPPR) Victim(set uint32, _ trace.Record) int { return p.trees.Victim(set) }

// PackedIPV implements cache.Packable: one-vector GIPPR is by definition
// IPV over tree-PLRU with no further state, so a cache over it runs the
// inline IPV step, which updates the policy's own trees in place. A duel's
// per-miss counter updates are outside the step's model, so duelling GIPPR
// returns false.
func (p *GIPPR) PackedIPV() ([]int, plrutree.Trees, bool) {
	if p.duel != nil {
		return nil, plrutree.Trees{}, false
	}
	return append([]int(nil), p.one...), p.trees, true
}

// OverheadBits implements Overheader: k-1 bits per set, same as PseudoLRU,
// plus the duel's counters for the whole cache (33 bits for 4-DGIPPR,
// Section 3.6).
func (p *GIPPR) OverheadBits() (float64, int) { return float64(p.trees.Ways() - 1), p.globalBits() }

var (
	_ cache.Policy       = (*GIPPR)(nil)
	_ cache.Instrumented = (*GIPPR)(nil)
	_ cache.Packable     = (*GIPPR)(nil)
	_ Overheader         = (*GIPPR)(nil)
)
