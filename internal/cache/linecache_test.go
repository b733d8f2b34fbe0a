package cache_test

import (
	"fmt"
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// line is one way of lineCache's tag store.
type line struct {
	block uint64 // full block number (addr >> blockShift); tag+index in one
	valid bool
	dirty bool
}

// lineCache is the scalar cache as it was before its tag store moved to
// packed tag, valid and dirty words: one struct per way, scanned in way
// order with the valid flag read before the tag, and the Bypasser
// assertion made on every full-set miss. It is kept as the reference that
// Cache is checked against, the way package plrutree keeps refTree, so the
// multi-word valid and dirty paths past 64 ways, which nothing outside the
// tests builds, stay pinned too.
type lineCache struct {
	cfg        cache.Config
	ways       int
	setMask    uint64
	blockShift uint
	lines      []line // flattened [set*ways + way]
	pol        cache.Policy
	stats      cache.Stats
	tel        *telemetry.Sink
	onEviction func(addr uint64)
}

func newLineCache(cfg cache.Config, pol cache.Policy) *lineCache {
	sets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.BlockBytes {
		shift++
	}
	return &lineCache{
		cfg:        cfg,
		ways:       cfg.Ways,
		setMask:    uint64(sets - 1),
		blockShift: shift,
		lines:      make([]line, sets*cfg.Ways),
		pol:        pol,
	}
}

func (c *lineCache) setTelemetry(s *telemetry.Sink) {
	s.Attach(len(c.lines))
	c.tel = s
	if ins, ok := c.pol.(cache.Instrumented); ok {
		ins.SetTelemetry(s)
	}
}

func (c *lineCache) access(r trace.Record) bool {
	block := r.Addr >> c.blockShift
	set := uint32(block & c.setMask)
	if !c.cfg.InSample(set) {
		c.stats.Skipped++
		return true
	}
	c.stats.Accesses++
	if r.Write {
		c.stats.Writes++
	}
	base := int(set) * c.ways
	ls := c.lines[base : base+c.ways]
	for w := range ls {
		if ls[w].valid && ls[w].block == block {
			c.stats.Hits++
			if r.Write {
				ls[w].dirty = true
			}
			if c.tel != nil {
				c.tel.Hit(base + w)
			}
			c.pol.OnHit(set, w, r)
			return true
		}
	}
	c.stats.Misses++
	if c.tel != nil {
		c.tel.Miss()
	}
	c.pol.OnMiss(set, r)
	w := -1
	for i := range ls {
		if !ls[i].valid {
			w = i
			break
		}
	}
	if w < 0 {
		if bp, ok := c.pol.(cache.Bypasser); ok && bp.ShouldBypass(set, r) {
			c.tel.Bypass()
			return false
		}
		w = c.pol.Victim(set, r)
		c.stats.Evictions++
		if ls[w].dirty {
			c.stats.Writebacks++
		}
		if c.tel != nil {
			c.tel.Evict(base+w, ls[w].dirty)
		}
		c.pol.OnEvict(set, w, r)
		if c.onEviction != nil {
			c.onEviction(ls[w].block << c.blockShift)
		}
	}
	ls[w] = line{block: block, valid: true, dirty: r.Write}
	if c.tel != nil {
		c.tel.Fill(base + w)
	}
	c.pol.OnFill(set, w, r)
	return false
}

func (c *lineCache) invalidate(addr uint64) bool {
	block := addr >> c.blockShift
	base := int(block&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].valid && c.lines[base+w].block == block {
			c.lines[base+w].valid = false
			return true
		}
	}
	return false
}

func (c *lineCache) contains(addr uint64) bool {
	block := addr >> c.blockShift
	base := int(block&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].valid && c.lines[base+w].block == block {
			return true
		}
	}
	return false
}

// lineRefCases are the geometries Cache is checked against lineCache at:
// associativities on both sides of each 64-way word boundary (one, two, and
// three and four valid words per set), a sampled cache, a Bypasser, and
// PLRU and one-vector GIPPR, whose caches take the IPV step (lineCache
// runs their callbacks) — at 2 and 4 ways with spare signature lanes and
// parked valid bits, and at 64 ways with neither.
var lineRefCases = []struct {
	name  string
	sets  int
	ways  int
	shift uint
	mk    func(sets, ways int) cache.Policy
}{
	{"LRU", 8, 3, 0, lru},
	{"LRU", 8, 63, 0, lru},
	{"LRU", 8, 64, 0, lru},
	{"LRU", 8, 65, 0, lru},
	{"LRU", 8, 100, 0, lru},
	{"LRU", 8, 127, 0, lru},
	{"LRU-sampled", 16, 65, 1, lru},
	{"FIFO", 8, 128, 0, func(s, w int) cache.Policy { return policy.NewFIFO(s, w) }},
	{"FIFO", 8, 200, 0, func(s, w int) cache.Policy { return policy.NewFIFO(s, w) }},
	{"Random", 8, 128, 0, func(s, w int) cache.Policy { return policy.NewRandom(s, w) }},
	{"Random", 8, 200, 0, func(s, w int) cache.Policy { return policy.NewRandom(s, w) }},
	{"SRRIP", 8, 128, 0, func(s, w int) cache.Policy { return policy.NewSRRIP(s, w) }},
	{"SRRIP", 8, 200, 0, func(s, w int) cache.Policy { return policy.NewSRRIP(s, w) }},
	{"GIPPR+bypass", 64, 16, 0, func(s, w int) cache.Policy { return policy.NewBypassGIPPR(s, w, ipv.PaperWIGIPPR) }},
	{"PLRU", 8, 4, 0, func(s, w int) cache.Policy { return policy.NewPLRU(s, w) }},
	{"PLRU", 8, 64, 0, func(s, w int) cache.Policy { return policy.NewPLRU(s, w) }},
	{"GIPPR", 8, 2, 0, func(s, w int) cache.Policy { return policy.NewGIPPR(s, w, ipv.LIP(w)) }},
	{"GIPPR", 64, 16, 0, func(s, w int) cache.Policy { return policy.NewGIPPR(s, w, ipv.PaperWIGIPPR) }},
	{"GIPPR-sampled", 16, 8, 1, func(s, w int) cache.Policy { return policy.NewGIPPR(s, w, ipv.MidClimb(w)) }},
}

func lru(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) }

// TestCacheMatchesLineReference drives Cache and lineCache, each with its
// own instance of the same policy, through one random sequence of reads,
// writes, invalidations and presence checks, and requires the same answer
// to every call, the same eviction addresses, counters and telemetry, and
// the same resident blocks at the end. Each geometry runs twice: as a lone
// cache, and as the last level of a MakeInclusive hierarchy over two small
// LRU levels, where its evictions back-invalidate the inner levels (the
// reference wires its levels the same way).
func TestCacheMatchesLineReference(t *testing.T) {
	inner := []cache.Config{
		{Name: "L1", SizeBytes: 2 * 4 * 64, Ways: 4, BlockBytes: 64},
		{Name: "L2", SizeBytes: 4 * 8 * 64, Ways: 8, BlockBytes: 64},
	}
	for _, tc := range lineRefCases {
		for _, inclusive := range []bool{false, true} {
			if inclusive && tc.name == "GIPPR+bypass" {
				continue // bypass breaks inclusion by design
			}
			name := fmt.Sprintf("%s/%d-way/inclusive=%v", tc.name, tc.ways, inclusive)
			t.Run(name, func(t *testing.T) {
				cfg := cache.Config{Name: "wide", SizeBytes: tc.sets * tc.ways * 64, Ways: tc.ways, BlockBytes: 64, SampleShift: tc.shift}
				var cfgs []cache.Config
				if inclusive {
					cfgs = append(cfgs, inner...)
				}
				cfgs = append(cfgs, cfg)
				got := make([]*cache.Cache, len(cfgs))
				want := make([]*lineCache, len(cfgs))
				gotEv := make([][]uint64, len(cfgs))
				wantEv := make([][]uint64, len(cfgs))
				for i, c := range cfgs {
					mk := lru
					if i == len(cfgs)-1 {
						mk = tc.mk
					}
					got[i] = cache.New(c, mk(c.Sets(), c.Ways))
					want[i] = newLineCache(c, mk(c.Sets(), c.Ways))
				}
				var h *cache.Hierarchy
				if inclusive {
					h = cache.NewHierarchy(got[0], got[1], got[2])
					h.MakeInclusive()
				}
				for i := range cfgs {
					i := i
					back := got[i].OnEviction
					got[i].OnEviction = func(a uint64) {
						gotEv[i] = append(gotEv[i], a)
						if back != nil {
							back(a)
						}
					}
					want[i].onEviction = func(a uint64) {
						wantEv[i] = append(wantEv[i], a)
						for _, in := range want[:i] {
							in.invalidate(a)
						}
					}
				}
				wide := len(cfgs) - 1
				var gotTel, wantTel telemetry.Sink
				got[wide].SetTelemetry(&gotTel)
				want[wide].setTelemetry(&wantTel)

				// A footprint of twice the wide cache's lines keeps hits,
				// cold fills and evictions all frequent.
				footprint := uint64(2 * tc.sets * tc.ways)
				rng := xrand.New(uint64(tc.ways)<<8 | uint64(tc.sets))
				addr := func() uint64 { return rng.Uint64n(footprint)*64 + rng.Uint64n(64) }
				levelOf := func(r trace.Record) int {
					if h != nil {
						return int(h.Access(r)) - 1
					}
					if got[0].Access(r) {
						return 0
					}
					return 1
				}
				wantLevel := func(r trace.Record) int {
					for i, c := range want {
						if c.access(r) {
							return i
						}
					}
					return len(want)
				}
				for op := 0; op < 30_000; op++ {
					switch k := rng.Intn(100); {
					case k < 6:
						i, a := rng.Intn(len(cfgs)), addr()
						if g, w := got[i].Invalidate(a), want[i].invalidate(a); g != w {
							t.Fatalf("op %d: level %d Invalidate(%#x) = %v, reference %v", op, i, a, g, w)
						}
					case k < 10:
						i, a := rng.Intn(len(cfgs)), addr()
						if g, w := got[i].Contains(a), want[i].contains(a); g != w {
							t.Fatalf("op %d: level %d Contains(%#x) = %v, reference %v", op, i, a, g, w)
						}
					default:
						r := trace.Record{PC: rng.Uint64n(64) * 4, Addr: addr(), Gap: 1, Write: rng.Intn(3) == 0}
						if g, w := levelOf(r), wantLevel(r); g != w {
							t.Fatalf("op %d: %+v satisfied at level %d, reference %d", op, r, g, w)
						}
					}
				}
				for i := range cfgs {
					if got[i].Stats != want[i].stats {
						t.Errorf("level %d stats %+v, reference %+v", i, got[i].Stats, want[i].stats)
					}
					if !reflect.DeepEqual(gotEv[i], wantEv[i]) {
						t.Errorf("level %d evicted %d addresses, reference %d, or in another order",
							i, len(gotEv[i]), len(wantEv[i]))
					}
					for b := uint64(0); b < footprint; b++ {
						if g, w := got[i].Contains(b*64), want[i].contains(b*64); g != w {
							t.Fatalf("level %d end state: Contains(block %d) = %v, reference %v", i, b, g, w)
						}
					}
				}
				if got[wide].Stats.Evictions == 0 || got[wide].Stats.Hits == 0 {
					t.Fatalf("stream never exercised hits and evictions: %+v", got[wide].Stats)
				}
				if !reflect.DeepEqual(&gotTel, &wantTel) {
					t.Error("telemetry differs from the reference")
				}
			})
		}
	}
}
