// Package cache implements the trace-driven set-associative cache model and
// the three-level hierarchy of the paper's evaluation (Section 4.5): a 32 KB
// 8-way L1 data cache, a 256 KB 8-way unified L2, a 4 MB 16-way L3 (the
// last-level cache whose replacement policy is under study), and a 200-cycle
// DRAM.
//
// The model is a miss-accounting simulator in the style of CMP$im's cache
// core: it tracks tags, dirty bits and replacement state, not data.
// Replacement policy is pluggable per cache via the Policy interface; every
// policy in package policy (LRU, PLRU, DRRIP, PDP, GIPPR, DGIPPR, ...)
// implements it. The hierarchy is non-inclusive/non-exclusive by default
// (each level fills on its own miss; opt into back-invalidation with
// Hierarchy.MakeInclusive) and write misses allocate like reads; these
// simplifications do not affect relative replacement-policy behaviour at
// the LLC, which is what the paper measures.
//
// Because the L1 and L2 policies are fixed, the access stream reaching the
// LLC is independent of the LLC's own replacement policy. CaptureLLC
// therefore records the LLC-visible stream once, walking L1 and L2 alone
// (a Hierarchy with RecordLLC set records the same stream during a full
// simulation), and searches such as the genetic algorithm replay it into an
// LLC-only model with ReplayStream — exactly the paper's Valgrind-trace
// methodology (Section 4.3), and orders of magnitude faster than
// re-simulating L1/L2. Replay is the one walk behind every such replay: it
// drives one cache over a stream in BlockSize blocks, and a caller that
// replays several policies walks the stream once per cache.
//
// A cache built only for one walk goes through ReplayFresh, which builds
// it, walks it and returns its Stats. New takes a cache's tag store (tags,
// valid and dirty words, signatures) from a pool in this package, one per
// array shape, and ReplayFresh hands the store back after the walk, so a
// grid, an explain diff or the GA's fitness loop allocates the 640 KiB
// store of a 4096x16 LLC once per shape instead of once per replay. A
// recycled store is cleared to the zeroes of new arrays before New parks
// its tail valid bits, so a cache starts in the same state, word for word,
// whichever replay used its arrays before; a stale valid bit alone would
// make empty ways look full. Caches handed to callers (hierarchies, the
// capture's L1 and L2) take from the pool but never give back
// (DESIGN.md §9).
//
// One Cache type models every level. For a policy that is one IPV over a
// packed recency state, New resolves the policy's vector and that state
// once, and each access then runs the paper's step inline (Sections 2 and
// 3.3-3.4): a hit moves the block at position i to V[i], a fill places it
// at V[k], the victim is the block in the last position. The state is
// tree-PLRU words for a Packable policy (PLRU and one-vector GIPPR) and
// exact-LRU recency lanes for a PackableLanes one (LRU, LIP, multi-step LRU
// and one-vector GIPLR, at up to 64 ways), so the L1 and L2 of every
// capture take the step too. A probe over one tag byte per way finds the
// hit way in a few word operations. Every other policy runs through the
// Policy callbacks. Both paths produce the same counters, telemetry events
// and policy state, bit for bit (DESIGN.md §14).
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"gippr/internal/plrutree"
	"gippr/internal/recency"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// ErrBadGeometry is the sentinel wrapped by every cache-geometry validation
// failure (inconsistent size/ways/block, non-power-of-two set counts, and
// out-of-range set-sampling shifts). Callers branch with errors.Is: the cmd
// tools map it to their usage exit code and the job service maps it to
// 400 Bad Request.
var ErrBadGeometry = errors.New("cache: bad geometry")

// Policy decides replacement within each set of one cache. Implementations
// hold all their per-set state (recency stacks, plru bits, RRPVs, ...).
// The cache calls:
//
//   - OnHit when an access hits;
//   - OnMiss once per miss, before victim selection (dueling policies use
//     this to update their selection counters);
//   - Victim on a miss in a full set, to choose the way to evict;
//   - OnEvict when a valid block is evicted (its way is about to be
//     overwritten);
//   - OnFill after the missing block has been placed in a way (whether it
//     replaced a victim or filled an invalid way).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	OnHit(set uint32, way int, r trace.Record)
	OnMiss(set uint32, r trace.Record)
	Victim(set uint32, r trace.Record) int
	OnEvict(set uint32, way int, r trace.Record)
	OnFill(set uint32, way int, r trace.Record)
}

// Instrumented is optionally implemented by replacement policies that can
// emit telemetry events (insertion positions, promotion distances, dueling
// votes). Cache.SetTelemetry forwards its sink to an Instrumented policy so
// cache-level and policy-level events land in the same place.
type Instrumented interface {
	SetTelemetry(*telemetry.Sink)
}

// Bypasser is optionally implemented by replacement policies that can
// decide an incoming block should not be cached at all (e.g. PDP with
// bypass, or the GIPPR+bypass extension). The cache consults it on a miss
// only when the set is full; a bypassed access counts as a miss but evicts
// nothing and fills nothing. Bypass violates inclusion, so it must not be
// used at an inclusive level.
type Bypasser interface {
	ShouldBypass(set uint32, r trace.Record) bool
}

// Packable is optionally implemented by replacement policies whose
// behaviour is exactly "insertion/promotion vector over tree-PLRU": on a
// hit a block at tree position i moves to V[i], on a fill the incoming
// block is placed at V[k], the victim is the tree-PLRU block, and OnMiss
// and OnEvict have no observable effect. PackedIPV returns that vector
// (length ways+1), the policy's trees, which the cache then updates in
// place, and ok=true. Policies with any further state or decision (a duel,
// a predictor) return ok=false. New runs the inline step for a Packable
// policy that answers ok, is not a Bypasser, and whose trees have the
// cache's sets and ways; policy.GIPPR implements it, so PLRU and
// one-vector GIPPR take the step.
type Packable interface {
	PackedIPV() ([]int, plrutree.Trees, bool)
}

// PackableLanes is Packable over exact LRU: a policy whose behaviour is
// exactly "insertion/promotion vector over a true-LRU recency stack"
// returns that vector (length ways+1), its recency lanes and ok=true from
// PackedLanes, and the cache runs the same inline step on the lanes. A hit
// at stack position i moves the block to V[i], a fill to V[k], and the
// victim is the block at position k-1. New takes it under Packable's
// conditions, and only up to 64 ways, where a set's valid and dirty bits
// are one word; policy.GIPLR implements it, so LRU, LIP, multi-step LRU
// and one-vector GIPLR take the step, and DGIPLR does not.
type PackableLanes interface {
	PackedLanes() ([]int, recency.Lanes, bool)
}

// Config describes one cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	// HitLatency is the access latency in cycles when this cache hits,
	// used by the CPU timing models.
	HitLatency int
	// SampleShift enables set sampling: only sets selected by a fixed
	// deterministic hash of the set index — a 1-in-2^SampleShift fraction —
	// are simulated; accesses to every other set are skipped (counted in
	// Stats.Skipped and treated as hits by the timing models). Miss counts
	// from a sampled cache estimate the full cache's misses after scaling
	// by SampleFactor. 0 (the zero value) means full fidelity: every set is
	// simulated and behaviour is bit-identical to a Config without the
	// field. This is the same statistical bet the paper's set-dueling makes
	// (a few leader sets predict the whole cache); DESIGN.md §9 derives the
	// estimator and its error model.
	SampleShift uint
}

// sampleSeed is the fixed hash seed behind set sampling. It is a package
// constant, not a Config field, so every sampled simulation of a geometry
// selects the same sets — estimates are reproducible across runs, tools and
// worker counts by construction.
const sampleSeed = 0x5e75a11ed5e75 // "set sampled sets"

// InSample reports whether a sampled cache simulates the given set. With
// SampleShift 0 every set is in the sample. The primary rule keeps a set
// when the low SampleShift bits of a hash of its index are zero; in the
// degenerate case where that selects no set at all (tiny caches at large
// shifts), the rule falls back to plain striding (every 2^shift-th set,
// which always includes set 0), keeping the sample non-empty.
func (c Config) InSample(set uint32) bool {
	if c.SampleShift == 0 {
		return true
	}
	mask := uint64(1)<<c.SampleShift - 1
	if c.hashSampleEmpty() {
		return uint64(set)&mask == 0
	}
	return xrand.Mix(uint64(set), sampleSeed)&mask == 0
}

// hashSampleEmpty reports whether the hash rule selects no set (the
// fallback trigger in InSample). SampleShift must be non-zero.
func (c Config) hashSampleEmpty() bool {
	mask := uint64(1)<<c.SampleShift - 1
	for set := 0; set < c.Sets(); set++ {
		if xrand.Mix(uint64(set), sampleSeed)&mask == 0 {
			return false
		}
	}
	return true
}

// SampledSets returns how many sets the sample selects (all of them when
// SampleShift is 0). The hash keeps a 1-in-2^SampleShift fraction in
// expectation; the exact count varies, which is why estimates scale by the
// measured SampleFactor rather than by 2^SampleShift.
func (c Config) SampledSets() int {
	if c.SampleShift == 0 {
		return c.Sets()
	}
	n := 0
	for set := 0; set < c.Sets(); set++ {
		if c.InSample(uint32(set)) {
			n++
		}
	}
	return n
}

// SampleFactor returns the factor that scales sampled-set event counts up
// to full-cache estimates: total sets over sampled sets (exactly 1 at full
// fidelity).
func (c Config) SampleFactor() float64 {
	return float64(c.Sets()) / float64(c.SampledSets())
}

// Validate checks the whole geometry without panicking: positive
// size/ways/block, power-of-two set and block counts, and a sampling shift
// that still selects at least one set. Every failure wraps ErrBadGeometry.
// Sets() enforces the same invariants by panic for internal callers that
// construct geometries from trusted constants; Validate is the error-path
// twin for geometries that cross an API boundary (job submissions, facade
// construction, flag parsing).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("%w: %s: size %d, ways %d, block %d must all be positive",
			ErrBadGeometry, c.Name, c.SizeBytes, c.Ways, c.BlockBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("%w: %s: block size %d is not a power of two", ErrBadGeometry, c.Name, c.BlockBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%w: %s: %d sets is not a power of two", ErrBadGeometry, c.Name, sets)
	}
	if _, err := c.CheckSampleShift(int(c.SampleShift)); err != nil {
		return err
	}
	return nil
}

// CheckSampleShift validates a user-supplied set-sampling shift against
// this geometry and returns it as the SampleShift field value. Negative
// shifts and shifts that sample fewer than one set (2^shift > sets) wrap
// ErrBadGeometry — they used to be silently clamped by the degenerate-hash
// fallback, which made "-sample 99" quietly simulate a single set.
func (c Config) CheckSampleShift(shift int) (uint, error) {
	if shift < 0 {
		return 0, fmt.Errorf("%w: %s: sample shift %d is negative", ErrBadGeometry, c.Name, shift)
	}
	if shift > 0 {
		base := c
		base.SampleShift = 0
		if sets := base.Sets(); shift >= bits.Len(uint(sets)) {
			return 0, fmt.Errorf("%w: %s: sample shift %d exceeds the geometry (2^%d > %d sets)",
				ErrBadGeometry, c.Name, shift, shift, sets)
		}
	}
	return uint(shift), nil
}

// Sets returns the number of sets implied by the geometry. It panics if the
// geometry is inconsistent or not a power of two.
func (c Config) Sets() int {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", c))
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s: %d sets is not a power of two", c.Name, sets))
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: %s: block size %d is not a power of two", c.Name, c.BlockBytes))
	}
	return sets
}

// Standard geometries from the paper (Section 4.5).
var (
	L1Config = Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64, HitLatency: 3}
	L2Config = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64, HitLatency: 12}
	L3Config = Config{Name: "L3", SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64, HitLatency: 30}
)

// DRAMLatency is the paper's main-memory latency in cycles.
const DRAMLatency = 200

// Stats counts events at one cache.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
	// Writebacks counts evictions of dirty lines — the write traffic this
	// cache would send toward memory. The simulator accounts it as a
	// statistic; writeback traffic is not re-injected into lower levels
	// (replacement decisions at the LLC are driven by demand references).
	Writebacks uint64
	// Skipped counts accesses to sets outside the sample when set sampling
	// is enabled (Config.SampleShift > 0). Skipped accesses are not counted
	// in Accesses/Hits/Misses, so those counters describe only the sampled
	// sets and scale up by Config.SampleFactor.
	Skipped uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one level of set-associative cache. Its tag store is one flat
// array of block numbers and, per set, way-indexed valid and dirty bit
// words, so the hit probe compares tags alone and reads a valid bit only on
// a match.
type Cache struct {
	cfg        Config
	sets       int
	ways       int
	words      int // valid and dirty words per set: ways/64 rounded up
	setMask    uint64
	blockShift uint
	// tags holds the full block number (addr >> blockShift, tag and index
	// in one) at [set*ways+way]. A way's tag means something only while its
	// valid bit is set.
	tags []uint64
	// valid and dirty hold way w of set s at bit w%64 of word
	// [s*words+w/64]. The valid bits past ways in a set's last word stay
	// set, so the inverted word's lowest set bit is the first invalid way.
	valid   []uint64
	dirty   []uint64
	sampled []bool // nil at full fidelity; else per-set in-sample flags
	pol     Policy
	bypass  Bypasser // pol as a Bypasser; nil when it cannot bypass
	Stats   Stats
	tel     *telemetry.Sink // nil when telemetry is disabled

	// The step's state, set only for a Packable or PackableLanes policy
	// (see step): the promotion targets V[0..ways-1] (nil when the
	// callbacks run), the insertion position V[ways], and the policy's own
	// position state: its trees, or with exact set, its recency lanes. sig
	// holds one tag byte per way (the byte just above the set index),
	// eight ways to a word, sigWords words per set.
	vec      []int
	insPos   int
	exact    bool
	trees    plrutree.Trees
	lanes    recency.Lanes
	sig      []uint64
	sigWords int
	sigShift uint

	// OnEviction, if set, is called with the byte address of every valid
	// block this cache evicts. Hierarchies use it to implement inclusion
	// (back-invalidation of inner levels).
	OnEviction func(addr uint64)
}

// New returns a cache with the given geometry and replacement policy. Its
// tag store (tags, valid and dirty words, and the step's signature bytes)
// comes from the package's pool when a replay has handed back one of the
// same shape, cleared to the zeroes of newly allocated arrays, so the cache
// starts in the same state either way (see ReplayFresh).
func New(cfg Config, pol Policy) *Cache { return newCache(cfg, pol, storeShape.take) }

// newCache is New with the tag store from get.
func newCache(cfg Config, pol Policy, get func(storeShape) *tagStore) *Cache {
	sets := cfg.Sets()
	words := (cfg.Ways + 63) / 64
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		words:      words,
		setMask:    uint64(sets - 1),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		pol:        pol,
	}
	c.bypass, _ = pol.(Bypasser)
	var vec []int
	if c.bypass == nil {
		if pk, ok := pol.(Packable); ok {
			if v, trees, ok := pk.PackedIPV(); ok && trees.Sets() == sets && trees.Ways() == cfg.Ways {
				vec, c.trees = v, trees
			}
		}
		if pk, ok := pol.(PackableLanes); ok && vec == nil && cfg.Ways <= 64 {
			if v, lanes, ok := pk.PackedLanes(); ok && lanes.Sets() == sets && lanes.Ways() == cfg.Ways {
				vec, c.lanes, c.exact = v, lanes, true
			}
		}
	}
	shape := storeShape{lines: sets * cfg.Ways, words: sets * words}
	if vec != nil {
		c.vec, c.insPos = vec[:cfg.Ways], vec[cfg.Ways]
		c.sigWords = (cfg.Ways + 7) / 8
		c.sigShift = uint(bits.Len(uint(sets - 1)))
		shape.sigs = sets * c.sigWords
	}
	st := get(shape)
	c.tags, c.valid, c.dirty, c.sig = st.tags, st.valid, st.dirty, st.sig
	if tail := cfg.Ways % 64; tail != 0 {
		for set := 0; set < sets; set++ {
			c.valid[set*words+words-1] = ^uint64(0) << tail
		}
	}
	if cfg.SampleShift > 0 {
		c.sampled = make([]bool, sets)
		for set := 0; set < sets; set++ {
			c.sampled[set] = cfg.InSample(uint32(set))
		}
	}
	return c
}

// tagStore is a cache's tag store, the part of a Cache that replays
// recycle: its tags, valid and dirty words, and signature words.
type tagStore struct{ tags, valid, dirty, sig []uint64 }

// storeShape is the length of each of a tag store's arrays: a store fits
// any cache of the same shape, whatever its geometry's name or policy.
type storeShape struct{ lines, words, sigs int }

// pools holds one sync.Pool of handed-back tag stores per shape. A pool
// keeps its stores only until the next garbage collections, so stores that
// no replay takes again are freed; the map itself grows by one small entry
// per shape a process replays.
var (
	poolsMu sync.Mutex
	pools   = map[storeShape]*sync.Pool{}
)

// pool returns the pool of tag stores of shape s.
func (s storeShape) pool() *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[s]
	if p == nil {
		p = new(sync.Pool)
		pools[s] = p
	}
	return p
}

// take returns a tag store of shape s: a handed-back one, cleared to zero
// as newly allocated arrays are, or else a new one. A stale valid bit
// would make an empty way look full, a stale tag or signature byte would
// be matched by nothing once its valid bit is clear, and a stale dirty bit
// is rewritten at every fill; all four are cleared, so a recycled store is
// the state of a new one word for word, not only in what the walk reads.
func (s storeShape) take() *tagStore {
	if st, _ := s.pool().Get().(*tagStore); st != nil {
		clear(st.tags)
		clear(st.valid)
		clear(st.dirty)
		clear(st.sig)
		return st
	}
	return s.alloc()
}

// alloc returns a newly allocated tag store of shape s.
func (s storeShape) alloc() *tagStore {
	return &tagStore{
		tags:  make([]uint64, s.lines),
		valid: make([]uint64, s.words),
		dirty: make([]uint64, s.words),
		sig:   make([]uint64, s.sigs),
	}
}

// release hands c's tag store to the pool of its shape and detaches it from
// c, so a later access through c panics instead of touching arrays another
// cache may own. Only the code that built c may call it, after c's last
// access; c's Stats stay readable.
func (c *Cache) release() {
	st := &tagStore{c.tags, c.valid, c.dirty, c.sig}
	storeShape{len(st.tags), len(st.valid), len(st.sig)}.pool().Put(st)
	c.tags, c.valid, c.dirty, c.sig = nil, nil, nil, nil
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Policy returns the replacement policy in use.
func (c *Cache) Policy() Policy { return c.pol }

// SetTelemetry attaches an event sink to the cache (nil detaches). The sink
// is sized for the cache's line count and, when the replacement policy is
// Instrumented, shared with it, so cache-level events (hits, misses,
// evictions with measured reuse) and policy-level events (insertion and
// promotion positions, dueling votes) accumulate together. With no sink
// attached, the Access hot path pays exactly one nil check per event site.
func (c *Cache) SetTelemetry(s *telemetry.Sink) {
	s.Attach(len(c.tags))
	c.tel = s
	if ins, ok := c.pol.(Instrumented); ok {
		ins.SetTelemetry(s)
	}
}

// Telemetry returns the attached sink (nil when disabled).
func (c *Cache) Telemetry() *telemetry.Sink { return c.tel }

// Block returns the block number of a byte address in this cache's geometry.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.blockShift }

// SetOf returns the set index a byte address maps to.
func (c *Cache) SetOf(addr uint64) uint32 { return uint32(c.Block(addr) & c.setMask) }

// Access performs one reference and returns whether it hit. On a miss the
// block is filled (allocate-on-miss for both reads and writes).
func (c *Cache) Access(r trace.Record) bool {
	block := c.Block(r.Addr)
	set := uint32(block & c.setMask)
	if c.vec != nil {
		return c.step(block, set, r.Write)
	}
	if c.sampled != nil && !c.sampled[set] {
		// Out-of-sample set: no tags are kept for it, so nothing to do.
		// Reported as a hit so timing models charge the optimistic latency
		// (DESIGN.md §9 discusses the resulting CPI bias).
		c.Stats.Skipped++
		return true
	}
	c.Stats.Accesses++
	if r.Write {
		c.Stats.Writes++
	}
	base := int(set) * c.ways
	vbase := int(set) * c.words
	if w := c.find(block, base, vbase); w >= 0 {
		c.Stats.Hits++
		if r.Write {
			c.dirty[vbase+w>>6] |= 1 << (w & 63)
		}
		if c.tel != nil {
			c.tel.Hit(base + w)
		}
		c.pol.OnHit(set, w, r)
		return true
	}
	c.Stats.Misses++
	if c.tel != nil {
		c.tel.Miss()
	}
	c.pol.OnMiss(set, r)
	w := -1
	for j := 0; j < c.words; j++ {
		if invalid := ^c.valid[vbase+j]; invalid != 0 {
			w = j<<6 + bits.TrailingZeros64(invalid)
			break
		}
	}
	if w < 0 {
		if c.bypass != nil && c.bypass.ShouldBypass(set, r) {
			c.tel.Bypass() // nil-safe; off the common path
			return false
		}
		w = c.pol.Victim(set, r)
		if w < 0 || w >= c.ways {
			panic(fmt.Sprintf("cache: %s: policy %s chose invalid victim way %d", c.cfg.Name, c.pol.Name(), w))
		}
		c.Stats.Evictions++
		dirty := c.dirty[vbase+w>>6]>>(w&63)&1 == 1
		if dirty {
			c.Stats.Writebacks++
		}
		if c.tel != nil {
			c.tel.Evict(base+w, dirty)
		}
		c.pol.OnEvict(set, w, r)
		if c.OnEviction != nil {
			c.OnEviction(c.tags[base+w] << c.blockShift)
		}
	}
	c.tags[base+w] = block
	bit := uint64(1) << (w & 63)
	c.valid[vbase+w>>6] |= bit
	if r.Write {
		c.dirty[vbase+w>>6] |= bit
	} else {
		c.dirty[vbase+w>>6] &^= bit
	}
	if c.tel != nil {
		c.tel.Fill(base + w)
	}
	c.pol.OnFill(set, w, r)
	return false
}

// laneLSB and laneMSB broadcast a byte lane's low and high bit across a
// word: the building blocks of step's signature probe.
const (
	laneLSB = 0x0101010101010101
	laneMSB = 0x8080808080808080
)

// step is Access for a Packable or PackableLanes policy: the same state
// machine with the policy's callbacks inlined as IPV moves on its position
// state, and the tag scan replaced by a probe of the set's signature bytes.
// The moves are the tree's find_index, set_index and find_plru, or with
// exact set the recency lanes' Position, MoveTo and Victim; the branch
// between them goes the same way on every access of a cache. A SWAR
// zero-byte scan of sig^probe flags every way whose byte matches, plus the
// odd borrow artifact just above a real match; each candidate is then
// checked against its valid bit and full tag, so collisions and the stale
// bytes Invalidate leaves change nothing. Lanes past ways hold no way, and
// their valid bits are parked at 1, so the probe skips them. Counters,
// telemetry events (Hit, Promote on a hit; Miss, Evict, Fill, Insert on a
// miss) and the OnEviction call come in Access's order. The step runs at
// up to 64 ways, so a set's valid and dirty bits are one word each.
func (c *Cache) step(block uint64, set uint32, write bool) bool {
	if c.sampled != nil && !c.sampled[set] {
		c.Stats.Skipped++
		return true
	}
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	}
	base := int(set) * c.ways
	valid := c.valid[set]
	sbase := int(set) * c.sigWords
	probe := uint64(byte(block>>c.sigShift)) * laneLSB
	for j := 0; j < c.sigWords; j++ {
		z := c.sig[sbase+j] ^ probe
		for zb := (z - laneLSB) &^ z & laneMSB; zb != 0; zb &= zb - 1 {
			w := j<<3 + bits.TrailingZeros64(zb)>>3
			if w < c.ways && valid>>w&1 == 1 && c.tags[base+w] == block {
				c.Stats.Hits++
				if write {
					c.dirty[set] |= 1 << w
				}
				var from int
				if c.exact {
					from = c.lanes.Position(set, w)
				} else {
					from = c.trees.Position(set, w)
				}
				to := c.vec[from]
				if c.tel != nil {
					c.tel.Hit(base + w)
					c.tel.Promote(from, to)
				}
				if c.exact {
					c.lanes.MoveTo(set, w, to)
				} else {
					c.trees.SetPosition(set, w, to)
				}
				return true
			}
		}
	}
	c.Stats.Misses++
	if c.tel != nil {
		c.tel.Miss()
	}
	// The lowest clear valid bit is the first invalid way. A full set's
	// word is all ones, the bits past ways being parked at 1, so it has
	// none and TrailingZeros64 reads 64.
	w := bits.TrailingZeros64(^valid)
	if w >= c.ways {
		if c.exact {
			w = c.lanes.Victim(set)
		} else {
			w = c.trees.Victim(set)
		}
		c.Stats.Evictions++
		dirty := c.dirty[set] >> w & 1
		c.Stats.Writebacks += dirty
		if c.tel != nil {
			c.tel.Evict(base+w, dirty == 1)
		}
		if c.OnEviction != nil {
			c.OnEviction(c.tags[base+w] << c.blockShift)
		}
	}
	c.tags[base+w] = block
	sw, shift := sbase+w>>3, uint(w&7)<<3
	c.sig[sw] = c.sig[sw]&^(0xFF<<shift) | probe&0xFF<<shift
	c.valid[set] |= 1 << w
	if write {
		c.dirty[set] |= 1 << w
	} else {
		c.dirty[set] &^= 1 << w
	}
	if c.tel != nil {
		c.tel.Fill(base + w)
		c.tel.Insert(c.insPos)
	}
	if c.exact {
		c.lanes.MoveTo(set, w, c.insPos)
	} else {
		c.trees.SetPosition(set, w, c.insPos)
	}
	return false
}

// find returns the way of the set at tag offset base and valid-word offset
// vbase that holds block, or -1. Tags are compared first; an invalidated
// way may keep a stale copy of the tag, so a match counts only when the
// way's valid bit is set.
func (c *Cache) find(block uint64, base, vbase int) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == block && c.valid[vbase+w>>6]>>(w&63)&1 == 1 {
			return w
		}
	}
	return -1
}

// Invalidate removes the block holding addr if present, returning whether
// it was resident. Used for back-invalidation in inclusive hierarchies.
// The replacement policy is not notified: the line simply becomes invalid
// and will be preferred for the next fill.
func (c *Cache) Invalidate(addr uint64) bool {
	block := c.Block(addr)
	set := int(block & c.setMask)
	vbase := set * c.words
	w := c.find(block, set*c.ways, vbase)
	if w < 0 {
		return false
	}
	c.valid[vbase+w>>6] &^= 1 << (w & 63)
	return true
}

// Contains reports whether the block holding addr is present (no state
// change; for tests).
func (c *Cache) Contains(addr uint64) bool {
	block := c.Block(addr)
	set := int(block & c.setMask)
	return c.find(block, set*c.ways, set*c.words) >= 0
}

// ResetStats zeroes the counters and any attached telemetry (e.g. after
// cache warm-up). The telemetry sink's per-line reuse clocks survive the
// reset, so reuse intervals spanning the warm-up boundary stay correct.
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	c.tel.Reset()
}
