package policy

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
