package policy

import (
	"gippr/internal/cache"
	"gippr/internal/trace"
)

// SHiP configuration (Wu et al., MICRO 2011), SHiP-PC variant on SRRIP.
const (
	shipTableSize  = 16384 // signature history counter table entries
	shipCounterMax = 3     // 2-bit counters
)

// signatures is SHiP-PC's reuse predictor, shared by SHiP and GIPPR+bypass:
// each line remembers a hash of the PC that filled it and whether it has
// been hit since. A table of 2-bit counters indexed by that signature
// counts up on a line's first hit and down when a line is evicted unreused,
// so a zero counter predicts that the PC's fills die without reuse.
type signatures struct {
	ways   int
	shct   []uint8  // signature history counters
	sig    []uint16 // per-line signature
	reused []bool   // per-line outcome bit
}

func newSignatures(sets, ways int) signatures {
	s := signatures{
		ways:   ways,
		shct:   make([]uint8, shipTableSize),
		sig:    make([]uint16, sets*ways),
		reused: make([]bool, sets*ways),
	}
	for i := range s.shct {
		s.shct[i] = 1 // weakly alive: give cold signatures a chance
	}
	return s
}

func shipSignature(pc uint64) uint16 {
	h := pc * 0x9e3779b97f4a7c15
	return uint16((h >> 48) & (shipTableSize - 1))
}

// hit trains the line's signature up on its first hit.
func (s *signatures) hit(set uint32, way int) {
	i := int(set)*s.ways + way
	if !s.reused[i] {
		s.reused[i] = true
		if c := s.sig[i]; s.shct[c] < shipCounterMax {
			s.shct[c]++
		}
	}
}

// evict trains the line's signature down if the line dies unreused.
func (s *signatures) evict(set uint32, way int) {
	i := int(set)*s.ways + way
	if !s.reused[i] {
		if c := s.sig[i]; s.shct[c] > 0 {
			s.shct[c]--
		}
	}
}

// fill tags the line with pc's signature and reports whether that
// signature predicts reuse.
func (s *signatures) fill(set uint32, way int, pc uint64) bool {
	i := int(set)*s.ways + way
	c := shipSignature(pc)
	s.sig[i] = c
	s.reused[i] = false
	return s.shct[c] > 0
}

// dead reports whether pc's signature predicts no reuse.
func (s *signatures) dead(pc uint64) bool { return s.shct[shipSignature(pc)] == 0 }

// SHiP is signature-based hit prediction over SRRIP: fills whose PC
// signature predicts no reuse are inserted at the distant RRPV so they are
// evicted quickly. The paper discusses SHiP as costlier related work (5
// bits per block plus a PC channel to the LLC); it is included here as the
// "future work" combination target.
type SHiP struct {
	RRIP
	pred signatures
}

// NewSHiP returns a SHiP-PC policy.
func NewSHiP(sets, ways int) *SHiP {
	return &SHiP{RRIP: *newRRIP("SHiP", sets, ways, rrpvBits, SRRIPHPVector), pred: newSignatures(sets, ways)}
}

// OnHit implements cache.Policy.
func (p *SHiP) OnHit(set uint32, way int, r trace.Record) {
	p.RRIP.OnHit(set, way, r)
	p.pred.hit(set, way)
}

// OnEvict implements cache.Policy.
func (p *SHiP) OnEvict(set uint32, way int, _ trace.Record) { p.pred.evict(set, way) }

// OnFill implements cache.Policy: SRRIP's insertion, or the distant RRPV
// when the PC's signature predicts no reuse.
func (p *SHiP) OnFill(set uint32, way int, r trace.Record) {
	v := p.max
	if p.pred.fill(set, way, r.PC) {
		v = p.vec.Insert
	}
	p.set(set)[way] = v
}

// OverheadBits implements Overheader: RRPV + signature + outcome per block
// (the paper's "5 extra bits per cache block" counts a compressed
// signature), plus the SHCT.
func (p *SHiP) OverheadBits() (float64, int) {
	perLine := rrpvBits + 14 + 1
	return float64(perLine * p.ways), shipTableSize * 2
}

var (
	_ cache.Policy = (*SHiP)(nil)
	_ Overheader   = (*SHiP)(nil)
)
