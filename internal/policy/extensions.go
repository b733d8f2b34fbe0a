package policy

// The paper's future-work item 1 (Section 7), "combining DGIPPR with a
// predictor that decides whether a block should bypass the cache":
// BypassGIPPR set-duels plain GIPPR against GIPPR with probabilistic bypass
// of incoming blocks. Item 5, IPVs over RRIP, is RRIP itself (rrip.go).

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// bypassSampleInverse keeps the bypass predictor trained: one in this many
// would-be-bypassed fills is inserted anyway so a signature that becomes
// reused again can recover from a zero counter.
const bypassSampleInverse = 32

// BypassGIPPR is GIPPR combined with a PC-signature bypass predictor
// (paper future-work item 1): SHiP's signature predictor, trained up when a
// line is reused and down when it is evicted dead, decides whether an
// incoming block should skip the cache entirely. A set-duel between "never
// bypass" and "bypass dead signatures" guards against workloads where the
// predictor misfires. One in 32 predicted-dead fills is inserted anyway so
// the predictor can recover when a signature's behaviour changes. Note
// bypass is incompatible with inclusive hierarchies — the same caveat the
// paper raises for PDP-with-bypass (Section 6.3).
//
// Insertion, promotion and the victim are the embedded one-vector GIPPR's,
// on its trees, with its telemetry events.
type BypassGIPPR struct {
	*GIPPR
	duel *dueling.Duel // picks the bypass mode, not a vector
	rng  *xrand.RNG
	pred signatures
}

// NewBypassGIPPR returns the predictor-guided bypass variant of GIPPR.
func NewBypassGIPPR(sets, ways int, v ipv.Vector) *BypassGIPPR {
	p := &BypassGIPPR{
		GIPPR: NewGIPPR(sets, ways, v),
		duel:  dueling.NewDuel(sets, 2, leadersFor(sets, 2), dueling.CounterBits11),
		rng:   xrand.New(0xb1fa),
		pred:  newSignatures(sets, ways),
	}
	p.name = "GIPPR+bypass"
	return p
}

// OnMiss implements cache.Policy.
func (p *BypassGIPPR) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// Winner returns the mode follower sets currently use: 0 never bypasses, 1
// bypasses dead signatures. It is the bypass duel's winner; the embedded
// GIPPR has one vector and no duel of its own.
func (p *BypassGIPPR) Winner() int { return p.duel.Winner() }

// OnHit implements cache.Policy: IPV promotion plus predictor training.
func (p *BypassGIPPR) OnHit(set uint32, way int, r trace.Record) {
	p.GIPPR.OnHit(set, way, r)
	p.pred.hit(set, way)
}

// OnEvict implements cache.Policy: train down dead signatures.
func (p *BypassGIPPR) OnEvict(set uint32, way int, _ trace.Record) { p.pred.evict(set, way) }

// ShouldBypass implements cache.Bypasser: on the bypassing arm, skip fills
// whose PC signature has shown no reuse, except for the training sample.
func (p *BypassGIPPR) ShouldBypass(set uint32, r trace.Record) bool {
	if p.duel.Choose(set) == 0 {
		return false // plain-GIPPR arm
	}
	if !p.pred.dead(r.PC) {
		return false
	}
	return !p.rng.OneIn(bypassSampleInverse)
}

// OnFill implements cache.Policy: IPV insertion plus the line's signature.
func (p *BypassGIPPR) OnFill(set uint32, way int, r trace.Record) {
	p.GIPPR.OnFill(set, way, r)
	p.pred.fill(set, way, r.PC)
}

// OverheadBits implements Overheader: PseudoLRU bits plus per-line
// signature/outcome state, one duel counter and the predictor table.
func (p *BypassGIPPR) OverheadBits() (float64, int) {
	ways := p.trees.Ways()
	return float64(ways-1) + float64((14+1)*ways),
		dueling.CounterBits11 + shipTableSize*2
}

var (
	_ cache.Policy       = (*BypassGIPPR)(nil)
	_ cache.Bypasser     = (*BypassGIPPR)(nil)
	_ cache.Instrumented = (*BypassGIPPR)(nil)
	_ Overheader         = (*BypassGIPPR)(nil)
)
