package policy

// Extensions implementing two of the paper's future-work directions
// (Section 7):
//
//   - item 5, "it may be adapted to other LRU-like algorithms such as
//     RRIP": RRIPV drives RRIP's re-reference prediction values with an
//     insertion/promotion vector over RRPV space instead of the fixed
//     hit-promote-to-zero rule;
//   - item 1, "combining DGIPPR with a predictor that decides whether a
//     block should bypass the cache": BypassGIPPR set-duels plain GIPPR
//     against GIPPR with probabilistic bypass of incoming blocks.

import (
	"fmt"

	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// RRIPVector is an insertion/promotion vector over the 2-bit RRPV space:
// Promote[v] is the new RRPV of a block hit at RRPV v; Insert is the RRPV
// given to an incoming block. Classic SRRIP-HP is Promote = [0,0,0,0],
// Insert = 2; SRRIP-FP is Promote = [0,0,1,2], Insert = 2.
type RRIPVector struct {
	Promote [4]uint8
	Insert  uint8
}

// Validate checks all values fit in 2 bits.
func (v RRIPVector) Validate() error {
	for i, p := range v.Promote {
		if p > 3 {
			return fmt.Errorf("policy: RRIP vector promote[%d] = %d out of range", i, p)
		}
	}
	if v.Insert > 3 {
		return fmt.Errorf("policy: RRIP vector insert = %d out of range", v.Insert)
	}
	return nil
}

// SRRIPHPVector is the hit-priority RRIP transition vector.
var SRRIPHPVector = RRIPVector{Promote: [4]uint8{0, 0, 0, 0}, Insert: 2}

// SRRIPFPVector is the frequency-priority RRIP transition vector.
var SRRIPFPVector = RRIPVector{Promote: [4]uint8{0, 0, 1, 2}, Insert: 2}

// RRIPV is RRIP replacement driven by an arbitrary RRPV transition vector —
// the paper's "adapt IPVs to RRIP" future-work item. With 4^5 = 1024
// possible vectors the space is small enough to search exhaustively.
type RRIPV struct {
	nop
	st  rripState
	vec RRIPVector
}

// NewRRIPV returns RRIP replacement with the given transition vector.
func NewRRIPV(sets, ways int, v RRIPVector) *RRIPV {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	return &RRIPV{st: newRRIPState(sets, ways), vec: v}
}

// Name implements cache.Policy.
func (p *RRIPV) Name() string {
	return fmt.Sprintf("RRIPV[%v %d]", p.vec.Promote, p.vec.Insert)
}

// OnHit implements cache.Policy.
func (p *RRIPV) OnHit(set uint32, way int, _ trace.Record) {
	rr := p.st.set(set)
	rr[way] = p.vec.Promote[rr[way]]
}

// Victim implements cache.Policy.
func (p *RRIPV) Victim(set uint32, _ trace.Record) int { return p.st.victim(set) }

// OnFill implements cache.Policy.
func (p *RRIPV) OnFill(set uint32, way int, _ trace.Record) {
	p.st.set(set)[way] = p.vec.Insert
}

// OverheadBits implements Overheader.
func (p *RRIPV) OverheadBits() (float64, int) { return float64(rrpvBits * p.st.ways), 0 }

// bypassSampleInverse keeps the bypass predictor trained: one in this many
// would-be-bypassed fills is inserted anyway so a signature that becomes
// reused again can recover from a zero counter.
const bypassSampleInverse = 32

// BypassGIPPR is GIPPR combined with a PC-signature bypass predictor
// (paper future-work item 1): a SHiP-style table of 2-bit counters, trained
// up when a line is reused and down when it is evicted dead, decides
// whether an incoming block should skip the cache entirely. A set-duel
// between "never bypass" and "bypass dead signatures" guards against
// workloads where the predictor misfires. One in 32 predicted-dead fills is
// inserted anyway so the predictor can recover when a signature's behaviour
// changes. Note bypass is incompatible with inclusive hierarchies — the
// same caveat the paper raises for PDP-with-bypass (Section 6.3).
//
// Insertion, promotion and the victim are the embedded one-vector GIPPR's,
// on its trees, with its telemetry events.
type BypassGIPPR struct {
	*GIPPR
	duel   *dueling.Duel // picks the bypass mode, not a vector
	rng    *xrand.RNG
	shct   []uint8  // signature reuse counters
	sig    []uint16 // per-line signature
	reused []bool   // per-line outcome
}

// NewBypassGIPPR returns the predictor-guided bypass variant of GIPPR.
func NewBypassGIPPR(sets, ways int, v ipv.Vector) *BypassGIPPR {
	p := &BypassGIPPR{
		GIPPR:  NewGIPPR(sets, ways, v),
		duel:   dueling.NewDuel(sets, 2, leadersFor(sets, 2), dueling.CounterBits11),
		rng:    xrand.New(0xb1fa),
		shct:   make([]uint8, shipTableSize),
		sig:    make([]uint16, sets*ways),
		reused: make([]bool, sets*ways),
	}
	p.name = "GIPPR+bypass"
	for i := range p.shct {
		p.shct[i] = 1 // weakly alive: give cold signatures a chance
	}
	return p
}

// OnMiss implements cache.Policy.
func (p *BypassGIPPR) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// OnHit implements cache.Policy: IPV promotion plus predictor training.
func (p *BypassGIPPR) OnHit(set uint32, way int, r trace.Record) {
	p.GIPPR.OnHit(set, way, r)
	idx := int(set)*p.trees.Ways() + way
	if !p.reused[idx] {
		p.reused[idx] = true
		if s := p.sig[idx]; p.shct[s] < shipCounterMax {
			p.shct[s]++
		}
	}
}

// OnEvict implements cache.Policy: train down dead signatures.
func (p *BypassGIPPR) OnEvict(set uint32, way int, _ trace.Record) {
	idx := int(set)*p.trees.Ways() + way
	if !p.reused[idx] {
		if s := p.sig[idx]; p.shct[s] > 0 {
			p.shct[s]--
		}
	}
}

// ShouldBypass implements cache.Bypasser: on the bypassing arm, skip fills
// whose PC signature has shown no reuse, except for the training sample.
func (p *BypassGIPPR) ShouldBypass(set uint32, r trace.Record) bool {
	if p.duel.Choose(set) == 0 {
		return false // plain-GIPPR arm
	}
	if p.shct[shipSignature(r.PC)] > 0 {
		return false
	}
	return !p.rng.OneIn(bypassSampleInverse)
}

// OnFill implements cache.Policy: IPV insertion plus the line's signature.
func (p *BypassGIPPR) OnFill(set uint32, way int, r trace.Record) {
	p.GIPPR.OnFill(set, way, r)
	idx := int(set)*p.trees.Ways() + way
	p.sig[idx] = shipSignature(r.PC)
	p.reused[idx] = false
}

// OverheadBits implements Overheader: PseudoLRU bits plus per-line
// signature/outcome state, one duel counter and the predictor table.
func (p *BypassGIPPR) OverheadBits() (float64, int) {
	ways := p.trees.Ways()
	return float64(ways-1) + float64((14+1)*ways),
		dueling.CounterBits11 + shipTableSize*2
}

var (
	_ cache.Policy       = (*RRIPV)(nil)
	_ cache.Policy       = (*BypassGIPPR)(nil)
	_ cache.Bypasser     = (*BypassGIPPR)(nil)
	_ cache.Instrumented = (*BypassGIPPR)(nil)
	_ Overheader         = (*RRIPV)(nil)
	_ Overheader         = (*BypassGIPPR)(nil)
)
