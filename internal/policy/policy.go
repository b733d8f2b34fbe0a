// Package policy implements every replacement policy the paper evaluates or
// builds on, all against the cache.Policy interface:
//
//   - classic baselines: true LRU, Random, FIFO, NRU, tree PseudoLRU;
//   - insertion-policy prior work: LIP, BIP, DIP (Qureshi et al.);
//   - re-reference interval prediction: SRRIP, BRRIP, DRRIP (Jaleel et al.);
//   - protecting distance: PDP (Duong et al.);
//   - signature-based hit prediction: SHiP-lite (Wu et al.);
//   - shared-cache pseudo-partitioning: PIPP (Xie & Loh) with UCP monitors;
//   - the paper's contributions: GIPLR (IPV over true LRU), GIPPR (IPV over
//     tree PseudoLRU) and DGIPPR (set-dueling over two or four IPVs);
//   - Belady's MIN optimal replacement, as an offline trace algorithm.
//
// The paper's mechanism is an insertion/promotion rule over one recency
// state, and each replacement state here has one type that carries every
// policy over it. GIPLR (exact LRU) and GIPPR (tree PseudoLRU) take one
// IPV, or a power-of-two number duelling through one dueling.Duel over the
// shared recency bits (LRU, LIP, multi-step LRU, DGIPLR; PLRU, DGIPPR).
// RRIP takes a vector over per-block RRPVs (SRRIP, RRIPV, and NRU as 1-bit
// RRIP); its fill, like DIP's over exact LRU, can take a bimodal arm, alone
// (BRRIP, BIP) or duelled (DRRIP, DIP). PIPP's allocations come from UCP
// monitors. SHiP (over RRIP) and GIPPR+bypass (over GIPPR) share one
// PC-signature predictor. The constructors (NewTrueLRU, NewPLRU, NewDRRIP,
// NewNRU, ...) differ only in vectors, arms and name.
//
// Each policy reports its replacement-state storage via the Overheader
// interface so the paper's overhead comparison (Section 3.6) can be
// regenerated.
package policy

import (
	"math"
	"math/bits"

	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/trace"
)

// Overheader is implemented by policies that can account for their
// replacement-state storage, mirroring the paper's Section 3.6 comparison.
type Overheader interface {
	// OverheadBits returns the replacement-state storage as bits per cache
	// set plus global bits for the whole cache (duel counters, predictor
	// tables, ...).
	OverheadBits() (perSet float64, global int)
}

// BitsPerBlock converts an OverheadBits result to the per-block figure the
// paper quotes (e.g. "less than 0.94 bits per block" for 15 bits across 16
// ways).
func BitsPerBlock(perSet float64, global, sets, ways int) float64 {
	return (perSet*float64(sets) + float64(global)) / float64(sets*ways)
}

// nop provides no-op defaults for the cache.Policy callbacks; policies embed
// it and override what they need.
type nop struct{}

func (nop) OnHit(uint32, int, trace.Record)   {}
func (nop) OnMiss(uint32, trace.Record)       {}
func (nop) OnEvict(uint32, int, trace.Record) {}
func (nop) OnFill(uint32, int, trace.Record)  {}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// stackBits is a full recency stack's storage per set: k·log2(k) bits
// (Section 2.1.2).
func stackBits(ways int) float64 { return float64(ways * log2ceil(ways)) }

// Factory constructs a fresh policy instance for a cache geometry. Fresh
// instances matter: policies hold all per-set state, so one instance must
// never be shared between caches or simulation runs.
type Factory struct {
	Name string
	New  func(sets, ways int) cache.Policy
}

// Validate panics if sets/ways are unusable; shared by constructors.
func validateGeometry(sets, ways int) {
	if sets <= 0 || ways < 2 {
		panic("policy: need sets >= 1 and ways >= 2")
	}
}

// leadersFor scales the customary 32 leader sets per policy down for small
// caches so that constituencies stay valid: at most 1/8 of the sets lead any
// policy, and every policy keeps at least one leader.
func leadersFor(sets, policies int) int {
	l := dueling.DefaultLeaders
	if max := sets / (8 * policies); max < l {
		l = max
	}
	if l < 1 {
		l = 1
	}
	return l
}

// mean-free helper used by PDP's solver and tests.
func argmaxFloat(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
