package policy

import (
	"fmt"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

// rrpvBits is the RRPV width the paper evaluates RRIP with (Jaleel et al.,
// ISCA 2010): re-reference prediction values range from 0 (near-immediate
// re-reference) to 3 (distant).
const rrpvBits = 2

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

// RRIP is re-reference interval prediction (Jaleel et al., ISCA 2010) as an
// insertion/promotion vector over each block's RRPV, the paper's
// future-work item 5 ("it may be adapted to other LRU-like algorithms such
// as RRIP"): a hit moves a block from RRPV v to Promote[v], a fill inserts
// at Insert or, on a bimodal arm, at the distant RRPV, and the victim is
// the leftmost block at the distant RRPV, aging the whole set until one
// exists. Every RRIP policy is one:
//
//   - SRRIP: hit priority (SRRIPHPVector);
//   - BRRIP: SRRIP's vector with the bimodal fill, RRIP's analogue of BIP;
//   - DRRIP: SRRIP duelling BRRIP over the shared RRPVs, the paper's
//     primary state-of-the-art comparison point (2 bits per block versus
//     GIPPR's <1);
//   - RRIPV: any vector; with 4^5 = 1024 vectors the space is small enough
//     to search exhaustively;
//   - NRU: 1-bit RRPVs, each the complement of NRU's reference bit, with
//     hits and fills at 0: a hit or fill marks a block referenced, the
//     victim is the leftmost unreferenced block, and a set with none clears
//     every reference first.
type RRIP struct {
	bimodal
	name string
	ways int
	bits int   // RRPV width: 2, or 1 for NRU
	max  uint8 // the distant RRPV, 1<<bits - 1
	vec  RRIPVector
	rrpv []uint8 // flattened [set*ways+way]
}

// newRRIP returns RRIP under vector v with every block at the distant RRPV
// and no bimodal arm.
func newRRIP(name string, sets, ways, bits int, v RRIPVector) *RRIP {
	validateGeometry(sets, ways)
	p := &RRIP{name: name, ways: ways, bits: bits, max: 1<<bits - 1, vec: v, rrpv: make([]uint8, sets*ways)}
	for i := range p.rrpv {
		p.rrpv[i] = p.max // empty ways predict distant re-reference
	}
	return p
}

// NewSRRIP returns static RRIP with hit priority: insert at RRPV 2,
// promote to RRPV 0 on hit, evict at RRPV 3.
func NewSRRIP(sets, ways int) *RRIP { return newRRIP("SRRIP", sets, ways, rrpvBits, SRRIPHPVector) }

// NewBRRIP returns bimodal RRIP: insert at RRPV 3 (distant) except once per
// 32 fills at RRPV 2, protecting against thrashing.
func NewBRRIP(sets, ways int) *RRIP {
	p := newRRIP("BRRIP", sets, ways, rrpvBits, SRRIPHPVector)
	p.bimodal = newBimodal(0xbead)
	return p
}

// NewDRRIP returns dynamic RRIP: set-dueling between SRRIP (arm 0) and
// BRRIP (arm 1) insertion, with a 10-bit PSEL and 32 leader sets per arm.
func NewDRRIP(sets, ways int) *RRIP {
	p := newRRIP("DRRIP", sets, ways, rrpvBits, SRRIPHPVector)
	p.bimodal = newDuelledBimodal(sets, 0xd44)
	return p
}

// NewRRIPV returns RRIP replacement with the given transition vector.
func NewRRIPV(sets, ways int, v RRIPVector) *RRIP {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	return newRRIP(fmt.Sprintf("RRIPV[%v %d]", v.Promote, v.Insert), sets, ways, rrpvBits, v)
}

// NewNRU returns not-recently-used replacement, the hardware-cheap policy
// RRIP generalizes: RRIP with 1-bit RRPVs.
func NewNRU(sets, ways int) *RRIP { return newRRIP("NRU", sets, ways, 1, RRIPVector{}) }

// Name implements cache.Policy.
func (p *RRIP) Name() string { return p.name }

func (p *RRIP) set(set uint32) []uint8 {
	base := int(set) * p.ways
	return p.rrpv[base : base+p.ways]
}

// OnHit implements cache.Policy.
func (p *RRIP) OnHit(set uint32, way int, _ trace.Record) {
	rr := p.set(set)
	rr[way] = p.vec.Promote[rr[way]]
}

// Victim implements cache.Policy: the leftmost way at the distant RRPV,
// aging the whole set until one exists.
func (p *RRIP) Victim(set uint32, _ trace.Record) int {
	rr, max := p.set(set), p.max
	for {
		for w, v := range rr {
			if v == max {
				return w
			}
		}
		for w := range rr {
			rr[w]++
		}
	}
}

// OnFill implements cache.Policy.
func (p *RRIP) OnFill(set uint32, way int, _ trace.Record) {
	v := p.vec.Insert
	if p.rng != nil && p.far(set) {
		v = p.max
	}
	p.set(set)[way] = v
}

// OverheadBits implements Overheader: the RRPVs plus the PSEL, if any.
func (p *RRIP) OverheadBits() (float64, int) { return float64(p.bits * p.ways), p.globalBits() }

var (
	_ cache.Policy = (*RRIP)(nil)
	_ Overheader   = (*RRIP)(nil)
)
