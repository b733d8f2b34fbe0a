// Package plrutree implements tree-based PseudoLRU state for every set of a
// cache (Handy, "The Cache Memory Book"; paper Section 3).
//
// A set of k ways (k a power of two) is tracked with a complete binary tree
// of k-1 one-bit internal nodes, so a 16-way set needs exactly 15 bits — the
// storage claim the paper's overhead argument rests on. Each set's bits are
// one uint64: bit n is the plru bit of internal node n (1 <= n < k) in the
// implicit heap layout, where the root is node 1, node n's children are 2n
// and 2n+1, and leaf k+w is way w. Trees provides three of the paper's
// algorithms; the fourth, promote (Figure 6), is set_index to position 0:
//
//   - Victim (find_plru, Figure 5): walk from the root following the plru
//     bits (1 = right, 0 = left) to the PseudoLRU leaf;
//   - Position (find_index, Figure 7): read a block's position in the
//     PseudoLRU recency stack from the bits on its path;
//   - SetPosition (set_index, Figure 9): write the bits on a block's path so
//     that the block occupies a chosen position — the enabling primitive for
//     PseudoLRU insertion/promotion vectors.
//
// Positions are in 0 (PMRU) .. k-1 (PLRU, the victim). Bit i of a way's
// position, counted from the leaf's parent upward so the root gives the most
// significant bit, comes from the i-th node on its path by the path rule: a
// right child's position bit is its parent's plru bit, and a left child's is
// the complement. Sibling subtrees therefore split every position range in
// half, so the k ways' positions always form a permutation of 0..k-1 although
// only k-1 bits of state exist.
//
// The nodes on way w's path depend only on (k, w), and set_index writes them
// from (w, x) alone, never reading the old bits. So Trees precomputes, per
// way, the path mask, and per (way, position), the path bits, and
// SetPosition is one word&^mask | vals expression. GIPPR's callbacks and
// the inline IPV step of package cache both run on these words, so a
// replay on either path leaves the same state in the policy.
package plrutree

import "fmt"

// MaxWays is the largest supported associativity: the k-1 internal-node bits
// must fit in a uint64.
const MaxWays = 64

// Trees is the tree-PLRU state of every set of a cache: one word of plru
// bits per set, plus the tables SetPosition applies. Construct with New; a
// copy shares the state.
type Trees struct {
	ways  int
	words []uint64 // per set: bit n (1 <= n < k) is internal node n's plru bit
	// mask[w] has a 1 for every internal node on way w's leaf-to-root path.
	mask []uint64
	// vals[w*k+x] is the value of those path bits that places way w at
	// position x (all other bits zero).
	vals []uint64
}

// New returns the trees of sets k-way sets, k = ways a power of two in
// 2..MaxWays. All plru bits start at zero, so in every set the initial
// victim is way 0 (every walk goes left) and way 0 holds position k-1.
func New(sets, ways int) Trees {
	if ways < 2 || ways > MaxWays || ways&(ways-1) != 0 {
		panic(fmt.Sprintf("plrutree: associativity %d is not a power of two in 2..%d", ways, MaxWays))
	}
	t := Trees{
		ways:  ways,
		words: make([]uint64, sets),
		mask:  make([]uint64, ways),
		vals:  make([]uint64, ways*ways),
	}
	for w := 0; w < ways; w++ {
		for x := 0; x < ways; x++ {
			var m, v uint64
			for i, n := 0, ways+w; n > 1; i, n = i+1, n>>1 {
				// The path rule: a right child (odd n) stores position
				// bit i in its parent as is, a left child its complement.
				m |= 1 << (n >> 1)
				v |= uint64(x>>i^n^1) & 1 << (n >> 1)
			}
			t.mask[w] = m
			t.vals[w*ways+x] = v
		}
	}
	return t
}

// Sets returns the number of sets.
func (t *Trees) Sets() int { return len(t.words) }

// Ways returns the associativity.
func (t *Trees) Ways() int { return t.ways }

// Word returns set's plru bits (bit n = internal node n, 1 <= n < k).
func (t *Trees) Word(set uint32) uint64 { return t.words[set] }

// Victim implements find_plru (Figure 5) as a branch-free root-to-leaf walk:
// each step shifts the node index down a level and ors in the node's plru
// bit. The returned way always has Position == k-1.
func (t *Trees) Victim(set uint32) int {
	word := t.words[set]
	n := uint(1)
	for n < uint(t.ways) {
		n = n<<1 | uint(word>>n&1)
	}
	return int(n) - t.ways
}

// Position implements find_index (Figure 7): way's position in set's
// PseudoLRU recency stack, with the left-child complement folded into an
// xor instead of a branch. Position k-1 is the victim; position 0 is the
// PMRU block.
func (t *Trees) Position(set uint32, way int) int {
	word := t.words[set]
	x, i := 0, uint(0)
	for n := uint(t.ways + way); n > 1; n >>= 1 {
		x |= int(word>>(n>>1)^^uint64(n)) & 1 << i
		i++
	}
	return x
}

// SetPosition implements set_index (Figure 9): rewrite the plru bits on
// way's path so that way occupies position pos in set's PseudoLRU recency
// stack. Only log2(k) bits change, but other blocks' positions may change
// drastically as a side effect — the property that makes PseudoLRU
// insertion/promotion different from true-LRU IPV moves, and the reason the
// paper evolves separate vectors for GIPPR. The range check panics with a
// constant message so the method stays within the inlining budget of its
// hot callers.
func (t *Trees) SetPosition(set uint32, way, pos int) {
	if uint(pos) >= uint(t.ways) {
		panic("plrutree: position out of range")
	}
	t.words[set] = t.words[set]&^t.mask[way] | t.vals[way*t.ways+pos]
}
