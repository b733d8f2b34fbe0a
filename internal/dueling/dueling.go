// Package dueling implements set-dueling (Qureshi et al., ISCA 2007) and
// its multi-set-dueling generalization (Loh, MICRO 2009), the mechanism
// DGIPPR uses to pick among evolved IPVs at run time (paper Section 3.5).
//
// A small number of leader sets are statically dedicated to each candidate
// policy. A saturating counter counts up when policy A misses in one of its
// leader sets and down when policy B misses in one of its own; the follower
// sets (everything else) use whichever policy the counter currently favours.
// Duel arranges such counters in a binary tree over any power-of-two number
// of policies: two policies need one counter (Qureshi's PSEL); four give
// Loh's tournament, two counters within the pairs (0,1) and (2,3) and a
// meta-counter between the pairs. The paper uses 11-bit counters: one for
// 2-DGIPPR, three for 4-DGIPPR — 33 bits for the entire cache.
package dueling

import "fmt"

// Counter is a saturating up/down counter of a given bit width, initialized
// to its midpoint. High() reports whether the count is at or above the
// midpoint — i.e. whether the "up" policy has accumulated more misses.
type Counter struct {
	v   int
	max int
	mid int
}

// NewCounter returns a counter with the given width in bits (1..30).
func NewCounter(bits int) Counter {
	if bits < 1 || bits > 30 {
		panic(fmt.Sprintf("dueling: counter width %d out of range", bits))
	}
	max := 1<<bits - 1
	mid := 1 << (bits - 1)
	return Counter{v: mid, max: max, mid: mid}
}

// Up increments the counter, saturating at its maximum.
func (c *Counter) Up() {
	if c.v < c.max {
		c.v++
	}
}

// Down decrements the counter, saturating at zero.
func (c *Counter) Down() {
	if c.v > 0 {
		c.v--
	}
}

// High reports whether the counter is at or above its midpoint.
func (c *Counter) High() bool { return c.v >= c.mid }

// Value returns the raw count (for tests and debugging).
func (c *Counter) Value() int { return c.v }

// Selector statically assigns leader sets. With L leaders per policy and S
// sets, the sets are divided into L equal regions ("constituencies") and the
// first P offsets of each region lead policies 0..P-1; all other sets are
// followers. This spreads each policy's leaders uniformly across the index
// space, the property set-dueling's sampling argument relies on.
type Selector struct {
	period   uint32
	policies uint32
}

// NewSelector returns a selector for numSets sets, numPolicies policies and
// leadersPerPolicy leader sets each.
func NewSelector(numSets, numPolicies, leadersPerPolicy int) *Selector {
	if numSets <= 0 || numPolicies <= 0 || leadersPerPolicy <= 0 {
		panic("dueling: non-positive selector parameter")
	}
	if leadersPerPolicy*numPolicies > numSets {
		panic(fmt.Sprintf("dueling: %d policies x %d leaders exceed %d sets",
			numPolicies, leadersPerPolicy, numSets))
	}
	period := numSets / leadersPerPolicy
	if period < numPolicies {
		panic("dueling: constituency too small for policy count")
	}
	return &Selector{period: uint32(period), policies: uint32(numPolicies)}
}

// Leader returns the policy index the set leads, or -1 for follower sets.
func (s *Selector) Leader(set uint32) int {
	off := set % s.period
	if off < s.policies {
		return int(off)
	}
	return -1
}

// DefaultLeaders is the customary number of leader sets per policy.
const DefaultLeaders = 32

// CounterBits11 is the counter width the paper specifies for DGIPPR.
const CounterBits11 = 11

// Duel selects among a power-of-two number of policies with a complete
// binary tree of counters, one per internal node in the implicit heap
// layout (root = node 1, leaves policies..2*policies-1). A leader's miss
// walks its leaf-to-root path, training each ancestor toward the sibling
// subtree; the winner walks root-to-leaf following the counters. It is
// recomputed only when a leader miss moves the counters, so Choose costs a
// leader test and a load.
type Duel struct {
	sel      Selector
	counters []Counter // counters[n] for node n in 1..len-1
	winner   int
}

// NewDuel returns a duel among numPolicies policies (a power of two >= 2)
// over numSets sets, with leadersPerPolicy leader sets each and counters of
// counterBits bits.
func NewDuel(numSets, numPolicies, leadersPerPolicy, counterBits int) *Duel {
	if numPolicies < 2 || numPolicies&(numPolicies-1) != 0 {
		panic(fmt.Sprintf("dueling: duel size %d is not a power of two >= 2", numPolicies))
	}
	d := &Duel{
		sel:      *NewSelector(numSets, numPolicies, leadersPerPolicy),
		counters: make([]Counter, numPolicies),
	}
	for n := 1; n < numPolicies; n++ {
		d.counters[n] = NewCounter(counterBits)
	}
	d.elect()
	return d
}

// Leader returns the policy index the set leads, or -1 for follower sets
// (exposed for telemetry: a leader miss is one dueling "vote").
func (d *Duel) Leader(set uint32) int { return d.sel.Leader(set) }

// OnMiss records a miss in the given set; misses in follower sets are
// ignored. A miss by leader p trains every counter on p's leaf-to-root
// path: Up when p lies in the node's left subtree (left missing pushes the
// node right), Down otherwise.
func (d *Duel) OnMiss(set uint32) {
	p := d.sel.Leader(set)
	if p < 0 {
		return
	}
	for node := len(d.counters) + p; node > 1; node /= 2 {
		if node%2 == 0 {
			d.counters[node/2].Up()
		} else {
			d.counters[node/2].Down()
		}
	}
	d.elect()
}

// elect walks from the root to the winning leaf, at each counter taking the
// subtree with fewer leader misses.
func (d *Duel) elect() {
	n := len(d.counters)
	node := 1
	for node < n {
		node *= 2
		if d.counters[node/2].High() { // left subtree missing more: go right
			node++
		}
	}
	d.winner = node - n
}

// Choose returns the policy index the given set should use right now:
// leader sets always use their own policy; follower sets use the winner.
// It spells out Selector.Leader so that callers which also draw a random
// number, such as DRRIP's and DIP's bimodal fill, stay within the
// inliner's budget.
func (d *Duel) Choose(set uint32) int {
	if off := set % d.sel.period; off < d.sel.policies {
		return int(off)
	}
	return d.winner
}

// Winner returns the policy followers currently use.
func (d *Duel) Winner() int { return d.winner }
