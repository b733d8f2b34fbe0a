// Package recency implements true-LRU recency stacks with generalized
// insertion/promotion moves (paper Section 2), for every set of a cache.
//
// A k-way set's blocks occupy distinct positions 0 (MRU) .. k-1 (LRU). The
// classic LRU policy promotes an accessed block to position 0 and inserts
// incoming blocks at position 0; an insertion/promotion vector (IPV)
// generalizes both: an accessed block at position i moves to V[i], and an
// incoming block is inserted at V[k]. When a block moves from i to t < i,
// the blocks in positions t..i-1 shift down one place; when t > i, the
// blocks in positions i+1..t shift up one place (Section 2.3). MoveTo is
// that one primitive; policies choose the target.
//
// This is the "integer per block" state the paper describes (Section
// 2.1.2): log2(k) bits per block, k*log2(k) bits per set — the expensive
// baseline that tree PseudoLRU (package plrutree) approximates with k-1
// bits per set. Each way's position is a 7-bit lane, eight lanes to a
// uint64, so associativity is limited to 2..MaxWays, and every stack
// rotation is branch-free SWAR arithmetic: a per-lane compare builds the
// mask of positions between source and target and one add or subtract
// shifts them all at once. That is the packed-word discipline of
// plrutree.Trees, applied to exact recency. The cache's IPV step (DESIGN.md
// §14) runs on these lanes for one-vector GIPLR (LRU, LIP, multi-step LRU)
// at up to 64 ways, as it runs on the trees for GIPPR: Position, MoveTo and
// Victim there stand in for the tree's find_index, set_index and find_plru,
// so the step and GIPLR's callbacks leave the same lanes.
package recency

import (
	"fmt"
	"math/bits"
)

// MaxWays is the largest supported associativity: positions 0..MaxWays-1
// fit a 7-bit lane below the parked value 0x7F.
const MaxWays = 127

// laneLSB and laneMSB broadcast a byte lane's low and high bit across a
// uint64, the two masks every SWAR byte trick below is built from; parked
// fills the lanes past the last way.
const (
	laneLSB = 0x0101010101010101
	laneMSB = 0x8080808080808080
	parked  = 0x7F
)

// Lanes is the recency state of every set of a cache: one 7-bit position
// per way, packed eight to a uint64, words consecutive per set. Construct
// with New; a copy shares the state.
type Lanes struct {
	ways  int
	words int // uint64 words per set: (ways+7)/8
	lanes []uint64
}

// New returns the recency stacks of sets k-way sets, k = ways in
// 2..MaxWays (true LRU does not require a power of two). Initially way w
// occupies position w in every set, so way k-1 is the first victim.
// Unused tail lanes park at 0x7F, above every reachable position, so no
// compare mask selects them.
func New(sets, ways int) Lanes {
	if ways < 2 || ways > MaxWays {
		panic(fmt.Sprintf("recency: associativity %d outside 2..%d", ways, MaxWays))
	}
	words := (ways + 7) / 8
	l := Lanes{ways: ways, words: words, lanes: make([]uint64, sets*words)}
	for j := 0; j < words; j++ {
		var x uint64
		for b := 0; b < 8; b++ {
			pos := uint64(j*8 + b)
			if pos >= uint64(ways) {
				pos = parked
			}
			x |= pos << (8 * b)
		}
		for set := 0; set < sets; set++ {
			l.lanes[set*words+j] = x
		}
	}
	return l
}

// Sets returns the number of sets.
func (l *Lanes) Sets() int { return len(l.lanes) / l.words }

// Ways returns the associativity.
func (l *Lanes) Ways() int { return l.ways }

// Position returns way's position in set (0 = MRU).
func (l *Lanes) Position(set uint32, way int) int {
	return int(l.lanes[int(set)*l.words+way>>3] >> ((way & 7) * 8) & parked)
}

// set returns set's words.
func (l *Lanes) set(set uint32) []uint64 {
	base := int(set) * l.words
	return l.lanes[base : base+l.words]
}

// laneLT returns a per-lane x < y indicator in each lane's high bit. Valid
// for lane values up to 0x7F, for which setting the high bits of x makes
// the subtraction borrow-free per lane.
func laneLT(x, y uint64) uint64 {
	return ^((x | laneMSB) - y) & laneMSB
}

// MoveTo moves way from its position in set to target, shifting every
// position strictly between by one place toward the vacated one. Each word
// is one compare-mask-and-add: promotions increment the lanes in [target,
// from), demotions decrement the lanes in (from, target]. Parked lanes sit
// above both bounds, so neither mask touches them.
func (l *Lanes) MoveTo(set uint32, way, target int) {
	if uint(target) >= uint(l.ways) {
		panic(fmt.Sprintf("recency: target position %d out of range 0..%d", target, l.ways-1))
	}
	ws := l.set(set)
	shift := (way & 7) * 8
	from := int(ws[way>>3] >> shift & parked)
	if from == target {
		return
	}
	if target < from {
		lo, hi := uint64(target)*laneLSB, uint64(from)*laneLSB
		for j, x := range ws {
			ws[j] = x + (laneLT(x, hi)&^laneLT(x, lo))>>7
		}
	} else {
		lo, hi := uint64(from)*laneLSB, uint64(target)*laneLSB
		for j, x := range ws {
			ws[j] = x - (laneLT(lo, x)&^laneLT(hi, x))>>7
		}
	}
	ws[way>>3] = ws[way>>3]&^(parked<<shift) | uint64(target)<<shift
}

// Victim returns the way in set's LRU position (k-1), found with a SWAR
// zero-byte scan: XORing the broadcast LRU position turns the matching
// lane into 0x00, and the classic (z-0x01..)&^z&0x80.. detector is exact
// here because every lane is at most 0x7F. Exactly one lane matches —
// positions are a permutation — and parked lanes never do.
func (l *Lanes) Victim(set uint32) int {
	lru := uint64(l.ways-1) * laneLSB
	for j, x := range l.set(set) {
		z := x ^ lru
		if m := (z - laneLSB) &^ z & laneMSB; m != 0 {
			return j*8 + bits.TrailingZeros64(m)>>3
		}
	}
	panic("recency: positions are not a permutation")
}
