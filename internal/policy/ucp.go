package policy

import (
	"gippr/internal/cache"
	"gippr/internal/recency"
	"gippr/internal/trace"
)

// UMON configuration: sampled sets per core and the recomputation epoch.
const (
	umonSampleMask  = 63    // monitor sets where set & mask == 0 (1 in 64)
	umonEpochLength = 65536 // accesses between allocation recomputations
)

// umon is a utility monitor (Qureshi & Patt's UCP, MICRO 2006): an
// auxiliary tag directory that tracks, for one core, the LRU stack each
// sampled set would have if the core owned the cache alone, and counts hits
// per recency position. hits[p] is the marginal utility of granting the
// core its (p+1)-th way.
type umon struct {
	ways   int
	tags   map[uint32][]uint64 // sampled set -> ATD tags, MRU first
	hits   []uint64            // hits by recency position
	misses uint64
}

func newUMON(ways int) *umon {
	return &umon{ways: ways, tags: make(map[uint32][]uint64), hits: make([]uint64, ways)}
}

// access records one reference by the monitored core to a sampled set.
func (u *umon) access(set uint32, block uint64) {
	atd := u.tags[set]
	for p, b := range atd {
		if b == block {
			u.hits[p]++
			copy(atd[1:p+1], atd[:p])
			atd[0] = block
			return
		}
	}
	u.misses++
	if len(atd) < u.ways {
		atd = append(atd, 0)
	}
	copy(atd[1:], atd)
	atd[0] = block
	u.tags[set] = atd
}

// decay halves the counters so allocations adapt to phase changes.
func (u *umon) decay() {
	for p := range u.hits {
		u.hits[p] >>= 1
	}
	u.misses >>= 1
}

// ucpAllocate assigns ways to cores with UCP's lookahead algorithm
// (Qureshi & Patt, MICRO 2006): utility curves are not concave — a core
// whose working set hits only at depth d gains nothing until it owns d+1
// ways — so each round every core bids the best *density* of hits over a
// block of additional ways (max over j of sum(hits[a..a+j-1])/j), and the
// winning block is granted whole. Every core keeps at least one way.
func ucpAllocate(monitors []*umon, ways int) []int {
	alloc := make([]int, len(monitors))
	remaining := ways
	for i := range alloc {
		alloc[i] = 1
		remaining--
	}
	for remaining > 0 {
		bestCore, bestLen, bestDensity := -1, 0, -1.0
		for c, m := range monitors {
			var sum uint64
			for j := 1; j <= remaining && alloc[c]+j <= ways; j++ {
				sum += m.hits[alloc[c]+j-1]
				d := float64(sum) / float64(j)
				// Density ties go to the core currently holding less, so
				// identical utility curves split the cache evenly.
				if d > bestDensity || (d == bestDensity && bestCore >= 0 && alloc[c] < alloc[bestCore]) {
					bestCore, bestLen, bestDensity = c, j, d
				}
			}
		}
		if bestCore < 0 {
			break
		}
		alloc[bestCore] += bestLen
		remaining -= bestLen
	}
	return alloc
}

// PIPPDyn is PIPP with UCP utility monitors choosing the per-core
// allocations at run time, completing the cited design (Xie & Loh pair
// PIPP's insertion/promotion mechanism with UMON-driven targets).
type PIPPDyn struct {
	nop
	rec      recency.Lanes
	monitors []*umon
	alloc    []int
	ways     int
	accesses uint64
	rng      *pippRNG
}

// pippRNG is a minimal inlined xorshift so PIPPDyn's promotion throttle
// stays allocation-free on the hot path.
type pippRNG struct{ s uint64 }

func (r *pippRNG) bool75() bool {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s&3 != 0 // 3 in 4
}

// NewPIPPDyn returns dynamic-partition PIPP for the given core count.
func NewPIPPDyn(sets, ways, cores int) *PIPPDyn {
	validateGeometry(sets, ways)
	if cores < 1 || cores > ways {
		panic("policy: PIPPDyn core count out of range")
	}
	p := &PIPPDyn{
		rec:   recency.New(sets, ways),
		alloc: make([]int, cores),
		ways:  ways,
		rng:   &pippRNG{s: 0x9e3779b97f4a7c15},
	}
	for c := 0; c < cores; c++ {
		p.monitors = append(p.monitors, newUMON(ways))
		p.alloc[c] = ways / cores
		if c < ways%cores {
			p.alloc[c]++
		}
	}
	return p
}

// Name implements cache.Policy.
func (p *PIPPDyn) Name() string { return "PIPP-dyn" }

// Allocations returns a copy of the current per-core partition targets.
func (p *PIPPDyn) Allocations() []int { return append([]int(nil), p.alloc...) }

func (p *PIPPDyn) tick(set uint32, r trace.Record) {
	p.accesses++
	if set&umonSampleMask == 0 && int(r.Core) < len(p.monitors) {
		p.monitors[r.Core].access(set, r.Addr>>6)
	}
	if p.accesses%umonEpochLength == 0 {
		p.alloc = ucpAllocate(p.monitors, p.ways)
		for _, m := range p.monitors {
			m.decay()
		}
	}
}

// OnHit implements cache.Policy: single-step promotion with probability 3/4.
func (p *PIPPDyn) OnHit(set uint32, way int, r trace.Record) {
	p.tick(set, r)
	if pos := p.rec.Position(set, way); pos > 0 && p.rng.bool75() {
		p.rec.MoveTo(set, way, pos-1)
	}
}

// OnMiss implements cache.Policy.
func (p *PIPPDyn) OnMiss(set uint32, r trace.Record) { p.tick(set, r) }

// Victim implements cache.Policy.
func (p *PIPPDyn) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy: insert at the core's current allocation
// position.
func (p *PIPPDyn) OnFill(set uint32, way int, r trace.Record) {
	a := 1
	if int(r.Core) < len(p.alloc) {
		a = p.alloc[r.Core]
	}
	p.rec.MoveTo(set, way, p.ways-a)
}

// OverheadBits implements Overheader: the LRU stack, the allocation
// registers, and the sampled ATDs (tag+position per monitored line).
func (p *PIPPDyn) OverheadBits() (float64, int) {
	atdBits := len(p.monitors) * (4096 / (umonSampleMask + 1)) * p.ways * 40
	return stackBits(p.ways),
		len(p.alloc)*log2ceil(p.ways+1) + atdBits
}

var (
	_ cache.Policy = (*PIPPDyn)(nil)
	_ Overheader   = (*PIPPDyn)(nil)
)
