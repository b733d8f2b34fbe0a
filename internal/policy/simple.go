package policy

import (
	"gippr/internal/cache"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// Random evicts a uniformly pseudo-random way. The paper's Figure 4 shows it
// performing at 99.9% of LRU on average — the observation motivating the
// claim that LRU's intuition buys little at the LLC.
type Random struct {
	nop
	ways int
	rng  *xrand.RNG
}

// NewRandom returns random replacement with a fixed seed for
// reproducibility.
func NewRandom(sets, ways int) *Random {
	validateGeometry(sets, ways)
	return &Random{ways: ways, rng: xrand.New(0x7a9db0c1)}
}

// Name implements cache.Policy.
func (p *Random) Name() string { return "Random" }

// Victim implements cache.Policy.
func (p *Random) Victim(uint32, trace.Record) int { return p.rng.Intn(p.ways) }

// OverheadBits implements Overheader: no replacement state.
func (p *Random) OverheadBits() (float64, int) { return 0, 0 }

// FIFO evicts blocks in insertion order, ignoring hits.
type FIFO struct {
	nop
	ways int
	next []uint8 // per-set round-robin pointer
}

// NewFIFO returns first-in-first-out replacement.
func NewFIFO(sets, ways int) *FIFO {
	validateGeometry(sets, ways)
	if ways > 255 {
		panic("policy: FIFO supports at most 255 ways")
	}
	return &FIFO{ways: ways, next: make([]uint8, sets)}
}

// Name implements cache.Policy.
func (p *FIFO) Name() string { return "FIFO" }

// Victim implements cache.Policy: the oldest-filled way.
func (p *FIFO) Victim(set uint32, _ trace.Record) int { return int(p.next[set]) }

// OnFill implements cache.Policy: advance the pointer past the filled way so
// cold fills (into invalid ways chosen by the cache) and replacements both
// keep insertion order.
func (p *FIFO) OnFill(set uint32, way int, _ trace.Record) {
	p.next[set] = uint8((way + 1) % p.ways)
}

// OverheadBits implements Overheader: one way pointer per set.
func (p *FIFO) OverheadBits() (float64, int) { return float64(log2ceil(p.ways)), 0 }

var (
	_ cache.Policy = (*Random)(nil)
	_ cache.Policy = (*FIFO)(nil)
	_ Overheader   = (*Random)(nil)
	_ Overheader   = (*FIFO)(nil)
)
