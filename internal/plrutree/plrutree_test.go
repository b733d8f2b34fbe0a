package plrutree

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"gippr/internal/xrand"
)

// refTree is an independent, deliberately naive implementation of the
// paper's Figures 5-9 pseudocode, used to cross-check the table-driven
// Trees. Nodes are a slice indexed 1..k-1 of ints, written node by node.
type refTree struct {
	k    int
	bits []int // bits[n] for 1 <= n < k
}

func newRef(k int) *refTree { return &refTree{k: k, bits: make([]int, k)} }

// newRefFrom returns the reference tree holding word's node bits.
func newRefFrom(k int, word uint64) *refTree {
	r := newRef(k)
	for n := 1; n < k; n++ {
		r.bits[n] = int(word >> n & 1)
	}
	return r
}

// word packs the reference's node bits into the Trees word layout.
func (r *refTree) word() uint64 {
	var w uint64
	for n := 1; n < r.k; n++ {
		w |= uint64(r.bits[n]) << n
	}
	return w
}

func (r *refTree) victim() int {
	p := 1
	for p < r.k {
		p = 2*p + r.bits[p]
	}
	return p - r.k
}

func (r *refTree) promote(w int) {
	p := r.k + w
	for p > 1 {
		parent := p / 2
		if p%2 == 0 { // left child
			r.bits[parent] = 1
		} else {
			r.bits[parent] = 0
		}
		p = parent
	}
}

func (r *refTree) position(w int) int {
	p := r.k + w
	x, i := 0, 0
	for p > 1 {
		parent := p / 2
		b := r.bits[parent]
		if p%2 == 0 {
			b = 1 - b
		}
		x |= b << i
		i++
		p = parent
	}
	return x
}

func (r *refTree) setPosition(w, x int) {
	p := r.k + w
	i := 0
	for p > 1 {
		parent := p / 2
		b := (x >> i) & 1
		if p%2 == 0 {
			b = 1 - b
		}
		r.bits[parent] = b
		p = parent
		i++
	}
}

var testedKs = []int{2, 4, 8, 16, 32, 64}

// nodeBits is the mask of a k-way set's internal-node bits, 1..k-1.
func nodeBits(k int) uint64 { return uint64(1)<<k - 2 }

// load overwrites set's word with raw's node bits, to start a check from
// an arbitrary state rather than only from states reachable from zero.
func (t *Trees) load(set uint32, raw uint64) { t.words[set] = raw & nodeBits(t.ways) }

// positions returns every way's position in set.
func (t *Trees) positions(set uint32) []int {
	ps := make([]int, t.ways)
	for w := range ps {
		ps[w] = t.Position(set, w)
	}
	return ps
}

// TestNewPanics covers the associativity domain, including the panic text
// Session.newPolicy reports as a bad geometry.
func TestNewPanics(t *testing.T) {
	for _, k := range []int{-4, 0, 1, 3, 6, 65, 128} {
		func() {
			defer func() {
				want := fmt.Sprintf("plrutree: associativity %d is not a power of two in 2..64", k)
				if r := recover(); r != want {
					t.Fatalf("New(4, %d) panicked with %v, want %q", k, r, want)
				}
			}()
			New(4, k)
		}()
	}
}

// TestNewPackedRejectsBadAssociativity checks the domain of the packed
// per-set word: every power of two from 2 to MaxWays builds, with a zero
// word, and every other associativity is refused.
func TestNewPackedRejectsBadAssociativity(t *testing.T) {
	for k := 2; k <= MaxWays; k *= 2 {
		tr := New(1, k)
		if tr.Ways() != k || tr.Word(0) != 0 {
			t.Fatalf("New(1, %d): Ways() = %d, Word(0) = %#x", k, tr.Ways(), tr.Word(0))
		}
	}
	for _, k := range []int{-4, 0, 1, 3, 6, 65, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(1, %d) did not panic", k)
				}
			}()
			New(1, k)
		}()
	}
}

func TestInitialState(t *testing.T) {
	for _, k := range testedKs {
		tr := New(3, k)
		if tr.Sets() != 3 || tr.Ways() != k {
			t.Fatalf("k=%d: geometry %dx%d", k, tr.Sets(), tr.Ways())
		}
		for set := uint32(0); set < 3; set++ {
			if tr.Word(set) != 0 {
				t.Fatalf("k=%d set %d: initial word %#x", k, set, tr.Word(set))
			}
			if v := tr.Victim(set); v != 0 {
				t.Fatalf("k=%d set %d: initial victim %d", k, set, v)
			}
			if p := tr.Position(set, 0); p != k-1 {
				t.Fatalf("k=%d set %d: way 0 initial position %d, want %d", k, set, p, k-1)
			}
		}
	}
}

// TestPromoteMakesPMRU: promote (Figure 6) is set_index to position 0.
func TestPromoteMakesPMRU(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		for w := 0; w < k; w++ {
			tr.SetPosition(0, w, 0)
			if got := tr.Position(0, w); got != 0 {
				t.Fatalf("k=%d: after promoting %d its position is %d", k, w, got)
			}
			if v := tr.Victim(0); v == w {
				t.Fatalf("k=%d: victim is the just-promoted way %d", k, w)
			}
		}
	}
}

func TestSetPositionRoundTrip(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		for w := 0; w < k; w++ {
			for x := 0; x < k; x++ {
				tr.SetPosition(0, w, x)
				if got := tr.Position(0, w); got != x {
					t.Fatalf("k=%d: SetPosition(%d,%d) read back %d", k, w, x, got)
				}
			}
		}
	}
}

func TestVictimHasMaxPosition(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		rng := xrand.New(uint64(k) * 7)
		for i := 0; i < 200; i++ {
			tr.SetPosition(0, rng.Intn(k), rng.Intn(k))
			v := tr.Victim(0)
			if got := tr.Position(0, v); got != k-1 {
				t.Fatalf("k=%d: victim %d has position %d", k, v, got)
			}
		}
	}
}

func TestPositionsAlwaysPermutation(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		rng := xrand.New(uint64(k) * 13)
		check := func() {
			seen := make([]bool, k)
			for _, p := range tr.positions(0) {
				if p < 0 || p >= k || seen[p] {
					t.Fatalf("k=%d: positions not a permutation: %v", k, tr.positions(0))
				}
				seen[p] = true
			}
		}
		check()
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0:
				tr.SetPosition(0, rng.Intn(k), 0)
			case 1:
				tr.SetPosition(0, rng.Intn(k), rng.Intn(k))
			case 2:
				tr.load(0, rng.Uint64())
			}
			check()
		}
	}
}

// TestAgainstReference drives Trees and refTree through one random sequence
// of promotions and moves at every associativity, requiring the same word,
// victim and positions after every step.
func TestAgainstReference(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		ref := newRef(k)
		rng := xrand.New(uint64(k) * 31)
		for i := 0; i < 2000; i++ {
			switch rng.Intn(3) {
			case 0:
				w := rng.Intn(k)
				tr.SetPosition(0, w, 0)
				ref.promote(w)
			case 1:
				w, x := rng.Intn(k), rng.Intn(k)
				tr.SetPosition(0, w, x)
				ref.setPosition(w, x)
			case 2:
				if tr.Victim(0) != ref.victim() {
					t.Fatalf("k=%d step %d: victim %d != ref %d", k, i, tr.Victim(0), ref.victim())
				}
			}
			if tr.Word(0) != ref.word() {
				t.Fatalf("k=%d step %d: word %#x != ref %#x", k, i, tr.Word(0), ref.word())
			}
			for w := 0; w < k; w++ {
				if tr.Position(0, w) != ref.position(w) {
					t.Fatalf("k=%d step %d: position(%d) %d != ref %d",
						k, i, w, tr.Position(0, w), ref.position(w))
				}
			}
		}
	}
}

// TestTreesMatchReferenceExhaustive checks every primitive against refTree
// over every state word of the small geometries and every (way, position)
// pair: 2^(k-1) states x k ways x k positions stays cheap through k=8 and
// covers the full state space, not just states reachable from zero.
func TestTreesMatchReferenceExhaustive(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		tr := New(1, k)
		for s := uint64(0); s < 1<<(k-1); s++ {
			word := s << 1
			tr.load(0, word)
			if got, want := tr.Victim(0), newRefFrom(k, word).victim(); got != want {
				t.Fatalf("k=%d word=%#x: Victim = %d, reference says %d", k, word, got, want)
			}
			for w := 0; w < k; w++ {
				tr.load(0, word)
				if got, want := tr.Position(0, w), newRefFrom(k, word).position(w); got != want {
					t.Fatalf("k=%d word=%#x: Position(%d) = %d, reference says %d", k, word, w, got, want)
				}
				for x := 0; x < k; x++ {
					tr.load(0, word)
					tr.SetPosition(0, w, x)
					ref := newRefFrom(k, word)
					ref.setPosition(w, x)
					if got, want := tr.Word(0), ref.word(); got != want {
						t.Fatalf("k=%d word=%#x: SetPosition(%d,%d) = %#x, reference says %#x", k, word, w, x, got, want)
					}
				}
				tr.load(0, word)
				tr.SetPosition(0, w, 0)
				ref := newRefFrom(k, word)
				ref.promote(w)
				if got, want := tr.Word(0), ref.word(); got != want {
					t.Fatalf("k=%d word=%#x: SetPosition(%d,0) = %#x, reference promote says %#x", k, word, w, got, want)
				}
			}
		}
	}
}

// TestTreesMatchReferenceRandom samples the larger geometries: random
// state words, all ways, random positions, each primitive checked in
// isolation against refTree. The long mixed-operation sequences live in
// TestAgainstReference and the differential battery.
func TestTreesMatchReferenceRandom(t *testing.T) {
	rounds := 2_000
	if testing.Short() {
		rounds = 200
	}
	for _, k := range testedKs {
		tr := New(1, k)
		rng := xrand.New(0x9ACCED ^ uint64(k))
		for i := 0; i < rounds; i++ {
			tr.load(0, rng.Uint64())
			ref := newRefFrom(k, tr.Word(0))
			if got, want := tr.Victim(0), ref.victim(); got != want {
				t.Fatalf("k=%d word=%#x: Victim = %d, reference says %d", k, tr.Word(0), got, want)
			}
			for w := 0; w < k; w++ {
				if got, want := tr.Position(0, w), ref.position(w); got != want {
					t.Fatalf("k=%d word=%#x: Position(%d) = %d, reference says %d", k, tr.Word(0), w, got, want)
				}
			}
			w, x := rng.Intn(k), rng.Intn(k)
			tr.SetPosition(0, w, x)
			ref.setPosition(w, x)
			if got, want := tr.Word(0), ref.word(); got != want {
				t.Fatalf("k=%d: SetPosition(%d,%d) = %#x, reference says %#x", k, w, x, got, want)
			}
		}
	}
}

func TestPromoteEqualsSetPositionZero(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		rng := xrand.New(uint64(k) * 37)
		for i := 0; i < 300; i++ {
			tr.load(0, rng.Uint64())
			ref := newRefFrom(k, tr.Word(0))
			w := rng.Intn(k)
			ref.promote(w)
			tr.SetPosition(0, w, 0)
			if tr.Word(0) != ref.word() {
				t.Fatalf("k=%d: SetPosition(%d,0) bits %#x != promote bits %#x", k, w, tr.Word(0), ref.word())
			}
		}
	}
}

func TestSetPositionTouchesAtMostLogKBits(t *testing.T) {
	for _, k := range testedKs {
		logk := bits.TrailingZeros(uint(k))
		tr := New(1, k)
		rng := xrand.New(uint64(k) * 41)
		for i := 0; i < 300; i++ {
			tr.load(0, rng.Uint64())
			before := tr.Word(0)
			tr.SetPosition(0, rng.Intn(k), rng.Intn(k))
			if n := bits.OnesCount64(before ^ tr.Word(0)); n > logk {
				t.Fatalf("k=%d: SetPosition changed %d bits, max %d", k, n, logk)
			}
		}
	}
}

// TestSetBitsMasks: the bits SetPosition sets are confined to the k-1
// internal nodes. Each way's path mask has log2(k) node bits, its values
// lie inside it, and a word that starts inside the node bits stays there.
func TestSetBitsMasks(t *testing.T) {
	for _, k := range testedKs {
		tr := New(1, k)
		for w := 0; w < k; w++ {
			m := tr.mask[w]
			if m&^nodeBits(k) != 0 || bits.OnesCount64(m) != bits.TrailingZeros(uint(k)) {
				t.Fatalf("k=%d: way %d path mask %#x", k, w, m)
			}
			for x := 0; x < k; x++ {
				if v := tr.vals[w*k+x]; v&^m != 0 {
					t.Fatalf("k=%d: way %d position %d sets %#x outside its path %#x", k, w, x, v, m)
				}
				tr.load(0, ^uint64(0))
				tr.SetPosition(0, w, x)
				if tr.Word(0)&^nodeBits(k) != 0 {
					t.Fatalf("k=%d: SetPosition(%d,%d) left %#x outside the node bits", k, w, x, tr.Word(0))
				}
			}
		}
	}
}

// TestSetPositionLeavesOtherSets: a move rewrites its own set's word and no
// other.
func TestSetPositionLeavesOtherSets(t *testing.T) {
	const sets = 5
	for _, k := range testedKs {
		tr := New(sets, k)
		rng := xrand.New(uint64(k) * 43)
		for set := uint32(0); set < sets; set++ {
			tr.load(set, rng.Uint64())
		}
		for i := 0; i < 300; i++ {
			before := append([]uint64(nil), tr.words...)
			set, w, x := uint32(rng.Intn(sets)), rng.Intn(k), rng.Intn(k)
			tr.SetPosition(set, w, x)
			for other := uint32(0); other < sets; other++ {
				if other != set && tr.Word(other) != before[other] {
					t.Fatalf("k=%d: SetPosition in set %d changed set %d from %#x to %#x",
						k, set, other, before[other], tr.Word(other))
				}
			}
			if got := tr.Position(set, w); got != x {
				t.Fatalf("k=%d: set %d way %d at %d, want %d", k, set, w, got, x)
			}
		}
	}
}

func TestPaperFig8Example(t *testing.T) {
	// Figure 8 is a 16-way tree with given internal bits; rather than
	// transcribe the (typeset-mangled) figure, verify its stated property
	// on arbitrary states: if the root bit is 1, every block in the right
	// half has the MSB of its position set, i.e. position >= k/2.
	tr := New(1, 16)
	f := func(raw uint64) bool {
		tr.load(0, raw)
		root := int(tr.Word(0) >> 1 & 1)
		for w := 8; w < 16; w++ { // right-half leaves
			if tr.Position(0, w)>>3 != root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetPositionPanicsOutOfRange(t *testing.T) {
	tr := New(1, 8)
	for _, x := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetPosition(0,0,%d) did not panic", x)
				}
			}()
			tr.SetPosition(0, 0, x)
		}()
	}
}

func BenchmarkPromote(b *testing.B) {
	tr := New(1, 16)
	for i := 0; i < b.N; i++ {
		tr.SetPosition(0, i&15, 0)
	}
}

func BenchmarkSetPosition(b *testing.B) {
	tr := New(1, 16)
	for i := 0; i < b.N; i++ {
		tr.SetPosition(0, i&15, (i>>4)&15)
	}
}

func BenchmarkPosition(b *testing.B) {
	tr := New(1, 16)
	s := 0
	for i := 0; i < b.N; i++ {
		s += tr.Position(0, i&15)
	}
	_ = s
}

func BenchmarkVictim(b *testing.B) {
	tr := New(1, 16)
	s := 0
	for i := 0; i < b.N; i++ {
		s += tr.Victim(0)
	}
	_ = s
}
