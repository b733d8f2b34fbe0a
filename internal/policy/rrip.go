package policy

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// RRIP constants (Jaleel et al., ISCA 2010), 2-bit variant as evaluated in
// the paper: re-reference prediction values (RRPVs) range 0 (near-immediate
// re-reference) to 3 (distant). Hit priority (HP) promotion sets a hit
// block's RRPV to 0.
const (
	rrpvBits      = 2
	rrpvMax       = 1<<rrpvBits - 1 // 3: distant re-reference (eviction candidate)
	rrpvLong      = rrpvMax - 1     // 2: long re-reference (SRRIP insertion)
	brripThrottle = 32              // BRRIP inserts at rrpvLong once per 32 fills
)

// rripState is the shared RRPV machinery of SRRIP/BRRIP/DRRIP.
type rripState struct {
	ways int
	rrpv []uint8 // flattened [set*ways+way]
}

func newRRIPState(sets, ways int) rripState {
	validateGeometry(sets, ways)
	st := rripState{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range st.rrpv {
		st.rrpv[i] = rrpvMax // empty ways predict distant re-reference
	}
	return st
}

func (st *rripState) set(set uint32) []uint8 {
	base := int(set) * st.ways
	return st.rrpv[base : base+st.ways]
}

// victim finds the leftmost way with RRPV == max, aging the whole set until
// one exists.
func (st *rripState) victim(set uint32) int {
	rr := st.set(set)
	for {
		for w, v := range rr {
			if v == rrpvMax {
				return w
			}
		}
		for w := range rr {
			rr[w]++
		}
	}
}

// SRRIP is static re-reference interval prediction with hit priority:
// insert at RRPV 2, promote to RRPV 0 on hit, evict at RRPV 3.
type SRRIP struct {
	nop
	st rripState
}

// NewSRRIP returns static RRIP replacement.
func NewSRRIP(sets, ways int) *SRRIP { return &SRRIP{st: newRRIPState(sets, ways)} }

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// OnHit implements cache.Policy.
func (p *SRRIP) OnHit(set uint32, way int, _ trace.Record) { p.st.set(set)[way] = 0 }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set uint32, _ trace.Record) int { return p.st.victim(set) }

// OnFill implements cache.Policy.
func (p *SRRIP) OnFill(set uint32, way int, _ trace.Record) { p.st.set(set)[way] = rrpvLong }

// OverheadBits implements Overheader.
func (p *SRRIP) OverheadBits() (float64, int) { return float64(rrpvBits * p.st.ways), 0 }

// BRRIP is bimodal RRIP: insert at RRPV 3 (distant) except once per 32
// fills at RRPV 2 — RRIP's analogue of BIP, protecting against thrashing.
type BRRIP struct {
	nop
	st  rripState
	rng *xrand.RNG
}

// NewBRRIP returns bimodal RRIP replacement.
func NewBRRIP(sets, ways int) *BRRIP {
	return &BRRIP{st: newRRIPState(sets, ways), rng: xrand.New(0xbead)}
}

// Name implements cache.Policy.
func (p *BRRIP) Name() string { return "BRRIP" }

// OnHit implements cache.Policy.
func (p *BRRIP) OnHit(set uint32, way int, _ trace.Record) { p.st.set(set)[way] = 0 }

// Victim implements cache.Policy.
func (p *BRRIP) Victim(set uint32, _ trace.Record) int { return p.st.victim(set) }

// OnFill implements cache.Policy.
func (p *BRRIP) OnFill(set uint32, way int, _ trace.Record) {
	if p.rng.OneIn(brripThrottle) {
		p.st.set(set)[way] = rrpvLong
	} else {
		p.st.set(set)[way] = rrpvMax
	}
}

// OverheadBits implements Overheader.
func (p *BRRIP) OverheadBits() (float64, int) { return float64(rrpvBits * p.st.ways), 0 }

// DRRIP is dynamic RRIP: set-dueling between SRRIP and BRRIP insertion over
// shared RRPVs, with a 10-bit PSEL and 32 leader sets per policy. This is
// the primary state-of-the-art comparison point in the paper (2 bits per
// block versus GIPPR's <1).
type DRRIP struct {
	nop
	st   rripState
	duel *dueling.Duel
	rng  *xrand.RNG
}

// NewDRRIP returns dynamic RRIP replacement.
func NewDRRIP(sets, ways int) *DRRIP {
	return &DRRIP{
		st:   newRRIPState(sets, ways),
		duel: dueling.NewDuel(sets, 2, leadersFor(sets, 2), 10),
		rng:  xrand.New(0xd44),
	}
}

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "DRRIP" }

// OnHit implements cache.Policy.
func (p *DRRIP) OnHit(set uint32, way int, _ trace.Record) { p.st.set(set)[way] = 0 }

// OnMiss implements cache.Policy.
func (p *DRRIP) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// Victim implements cache.Policy.
func (p *DRRIP) Victim(set uint32, _ trace.Record) int { return p.st.victim(set) }

// OnFill implements cache.Policy: policy 0 = SRRIP insertion, policy 1 =
// BRRIP insertion.
func (p *DRRIP) OnFill(set uint32, way int, _ trace.Record) {
	if p.duel.Choose(set) == 0 {
		p.st.set(set)[way] = rrpvLong
		return
	}
	if p.rng.OneIn(brripThrottle) {
		p.st.set(set)[way] = rrpvLong
	} else {
		p.st.set(set)[way] = rrpvMax
	}
}

// Winner returns the insertion mode follower sets currently use (0 = SRRIP,
// 1 = BRRIP).
func (p *DRRIP) Winner() int { return p.duel.Winner() }

// OverheadBits implements Overheader: 2 bits per block plus the PSEL.
func (p *DRRIP) OverheadBits() (float64, int) { return float64(rrpvBits * p.st.ways), 10 }

var (
	_ cache.Policy = (*SRRIP)(nil)
	_ cache.Policy = (*BRRIP)(nil)
	_ cache.Policy = (*DRRIP)(nil)
	_ Overheader   = (*SRRIP)(nil)
	_ Overheader   = (*BRRIP)(nil)
	_ Overheader   = (*DRRIP)(nil)
)
