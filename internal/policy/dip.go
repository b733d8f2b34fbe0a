package policy

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/recency"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// bipEpsilonInverse is the bimodal throttle: BIP inserts at MRU once every
// 1/epsilon fills (Qureshi et al. use epsilon = 1/32).
const bipEpsilonInverse = 32

// BIP is bimodal insertion (Qureshi et al., ISCA 2007): hits promote to MRU
// as in LRU, but incoming blocks are inserted at the LRU position except for
// a small fraction (1/32) inserted at MRU, which lets a thrashing working
// set retain a rotating subset of itself.
type BIP struct {
	nop
	rec recency.Lanes
	rng *xrand.RNG
}

// NewBIP returns bimodal-insertion replacement.
func NewBIP(sets, ways int) *BIP {
	validateGeometry(sets, ways)
	return &BIP{rec: recency.New(sets, ways), rng: xrand.New(0x51b1)}
}

// Name implements cache.Policy.
func (p *BIP) Name() string { return "BIP" }

// OnHit implements cache.Policy.
func (p *BIP) OnHit(set uint32, way int, _ trace.Record) { p.rec.MoveTo(set, way, 0) }

// Victim implements cache.Policy.
func (p *BIP) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: LRU-position insert, MRU with probability
// 1/32.
func (p *BIP) OnFill(set uint32, way int, _ trace.Record) {
	bipFill(&p.rec, p.rng, set, way)
}

// bipFill inserts at the LRU position, or at MRU with probability 1/32.
func bipFill(rec *recency.Lanes, rng *xrand.RNG, set uint32, way int) {
	if rng.OneIn(bipEpsilonInverse) {
		rec.MoveTo(set, way, 0)
	} else {
		rec.MoveTo(set, way, rec.Ways()-1)
	}
}

// OverheadBits implements Overheader: the underlying LRU stack.
func (p *BIP) OverheadBits() (float64, int) { return stackBits(p.rec.Ways()), 0 }

// DIP is dynamic insertion policy (Qureshi et al., ISCA 2007): set-dueling
// between classic LRU insertion (MRU position) and BIP, on top of a full LRU
// stack. It is the direct intellectual ancestor of DGIPPR's vector dueling.
type DIP struct {
	nop
	rec  recency.Lanes
	duel *dueling.Duel
	rng  *xrand.RNG
}

// NewDIP returns dynamic-insertion replacement with 32 leader sets per
// policy and a 10-bit PSEL, as in the original paper.
func NewDIP(sets, ways int) *DIP {
	validateGeometry(sets, ways)
	return &DIP{
		rec:  recency.New(sets, ways),
		duel: dueling.NewDuel(sets, 2, leadersFor(sets, 2), 10),
		rng:  xrand.New(0xd1b),
	}
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return "DIP" }

// OnHit implements cache.Policy.
func (p *DIP) OnHit(set uint32, way int, _ trace.Record) { p.rec.MoveTo(set, way, 0) }

// OnMiss implements cache.Policy.
func (p *DIP) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// Victim implements cache.Policy.
func (p *DIP) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: policy 0 = LRU (MRU insert), policy 1 =
// BIP.
func (p *DIP) OnFill(set uint32, way int, _ trace.Record) {
	if p.duel.Choose(set) == 0 {
		p.rec.MoveTo(set, way, 0)
		return
	}
	bipFill(&p.rec, p.rng, set, way)
}

// OverheadBits implements Overheader: LRU stack plus the 10-bit PSEL.
func (p *DIP) OverheadBits() (float64, int) { return stackBits(p.rec.Ways()), 10 }

var (
	_ cache.Policy = (*BIP)(nil)
	_ cache.Policy = (*DIP)(nil)
	_ Overheader   = (*BIP)(nil)
	_ Overheader   = (*DIP)(nil)
)
