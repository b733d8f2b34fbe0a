package policy

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/recency"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

const (
	// bimodalThrottle: a bimodal fill takes the near insertion once every
	// 1/epsilon fills (Qureshi et al. use epsilon = 1/32).
	bimodalThrottle = 32
	// pselBits is the width of DIP's and DRRIP's duel counter (PSEL).
	pselBits = 10
)

// bimodal is the fill rule DIP and RRIP share. A fill takes the policy's
// near insertion (MRU for DIP, the vector's RRPV for RRIP), or on the
// bimodal arm the far end (LRU, the distant RRPV) except once in 32 fills,
// which lets a thrashing working set retain a rotating subset of itself
// (Qureshi et al., ISCA 2007). With a duel, leader sets pit the near
// insertion (arm 0) against the bimodal arm (arm 1) through a 10-bit PSEL
// and follower sets take the winner (DIP, DRRIP). The zero value has no
// bimodal arm: every fill takes the near insertion.
type bimodal struct {
	nop
	rng  *xrand.RNG    // nil: no bimodal arm
	duel *dueling.Duel // nil: every set takes the bimodal arm
}

// newBimodal returns the bimodal arm alone, drawing from seed.
func newBimodal(seed uint64) bimodal { return bimodal{rng: xrand.New(seed)} }

// newDuelledBimodal returns the near insertion duelling the bimodal arm
// over 32 leader sets per arm (fewer in small caches), as in the original
// papers.
func newDuelledBimodal(sets int, seed uint64) bimodal {
	return bimodal{rng: xrand.New(seed), duel: dueling.NewDuel(sets, 2, leadersFor(sets, 2), pselBits)}
}

// far reports whether a fill into set goes to the far end; only a rule
// with a bimodal arm may ask. Only a fill on that arm draws from the RNG,
// and it draws as xrand's OneIn(bimodalThrottle) does. far is small enough
// to inline into OnFill.
func (b *bimodal) far(set uint32) bool {
	return (b.duel == nil || b.duel.Choose(set) != 0) && b.rng.Uint64()%bimodalThrottle != 0
}

// OnMiss implements cache.Policy: a leader-set miss trains the duel.
func (b *bimodal) OnMiss(set uint32, _ trace.Record) {
	if b.duel != nil {
		b.duel.OnMiss(set)
	}
}

// Winner returns the arm follower sets currently use (0 = near insertion,
// 1 = bimodal); 0 without a duel.
func (b *bimodal) Winner() int {
	if b.duel == nil {
		return 0
	}
	return b.duel.Winner()
}

// globalBits is the duel's PSEL, if any.
func (b *bimodal) globalBits() int {
	if b.duel == nil {
		return 0
	}
	return pselBits
}

// DIP is dynamic insertion (Qureshi et al., ISCA 2007) over a full LRU
// stack: hits promote to MRU as in LRU, and fills take the bimodal rule.
// BIP inserts at the LRU position except for 1 fill in 32 at MRU; DIP
// set-duels classic LRU insertion (MRU) against BIP. DIP is the direct
// intellectual ancestor of DGIPPR's vector dueling.
type DIP struct {
	bimodal
	name string
	rec  recency.Lanes
}

// NewBIP returns bimodal-insertion replacement.
func NewBIP(sets, ways int) *DIP {
	validateGeometry(sets, ways)
	return &DIP{bimodal: newBimodal(0x51b1), name: "BIP", rec: recency.New(sets, ways)}
}

// NewDIP returns dynamic-insertion replacement with 32 leader sets per
// policy and a 10-bit PSEL, as in the original paper.
func NewDIP(sets, ways int) *DIP {
	validateGeometry(sets, ways)
	return &DIP{bimodal: newDuelledBimodal(sets, 0xd1b), name: "DIP", rec: recency.New(sets, ways)}
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return p.name }

// OnHit implements cache.Policy.
func (p *DIP) OnHit(set uint32, way int, _ trace.Record) { p.rec.MoveTo(set, way, 0) }

// Victim implements cache.Policy.
func (p *DIP) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: MRU, or LRU on the bimodal arm.
func (p *DIP) OnFill(set uint32, way int, _ trace.Record) {
	pos := 0
	if p.far(set) {
		pos = p.rec.Ways() - 1
	}
	p.rec.MoveTo(set, way, pos)
}

// OverheadBits implements Overheader: the LRU stack plus the PSEL, if any.
func (p *DIP) OverheadBits() (float64, int) { return stackBits(p.rec.Ways()), p.globalBits() }

var (
	_ cache.Policy = (*DIP)(nil)
	_ Overheader   = (*DIP)(nil)
)
