package plrutree

import (
	"testing"

	"gippr/internal/xrand"
)

// This file cross-checks Trees against a pointer-based recursive model that
// shares no structure with the table-driven implementation: no implicit
// heap indexing, no bit shifting, no iteration from leaf to root. Each internal
// node is a heap-allocated struct and every operation is expressed as
// top-down recursion over subtree leaf counts. The model and the production
// code can therefore only agree if both implement the paper's Figures 5-9
// semantics, not merely the same bit layout. (plrutree_test.go has a second,
// array-based reference that mirrors the pseudocode more literally.)

// pnode is one node of the recursive reference tree. Leaves have left ==
// right == nil and carry a way number; internal nodes carry the plru bit
// (0 = next victim is in the left subtree, 1 = right).
type pnode struct {
	left, right *pnode
	way         int // leaves only
	bit         int // internal nodes only
	leaves      int // number of ways under this node
}

// buildPtr returns the reference tree over ways [lo, lo+n).
func buildPtr(lo, n int) *pnode {
	if n == 1 {
		return &pnode{way: lo, leaves: 1}
	}
	return &pnode{
		left:   buildPtr(lo, n/2),
		right:  buildPtr(lo+n/2, n/2),
		leaves: n,
	}
}

func (p *pnode) isLeaf() bool { return p.left == nil }

// contains reports whether way w is a leaf of this subtree. Ways are laid
// out in order, so a range check suffices.
func (p *pnode) contains(w int) bool {
	lo := p.minWay()
	return lo <= w && w < lo+p.leaves
}

func (p *pnode) minWay() int {
	for !p.isLeaf() {
		p = p.left
	}
	return p.way
}

// victim follows the plru bits to the PseudoLRU leaf (Figure 5).
func (p *pnode) victim() int {
	if p.isLeaf() {
		return p.way
	}
	if p.bit == 1 {
		return p.right.victim()
	}
	return p.left.victim()
}

// promote points every bit on w's root-to-leaf path away from w (Figure 6).
func (p *pnode) promote(w int) {
	if p.isLeaf() {
		return
	}
	if p.left.contains(w) {
		p.bit = 1
		p.left.promote(w)
	} else {
		p.bit = 0
		p.right.promote(w)
	}
}

// position reads w's recency-stack position (Figure 7). The subtree not
// containing the victim path bit contributes a block of half positions: if w
// sits on the side the bit points at, its position is in the upper half.
func (p *pnode) position(w int) int {
	if p.isLeaf() {
		return 0
	}
	half := p.leaves / 2
	if p.left.contains(w) {
		return (1-p.bit)*half + p.left.position(w)
	}
	return p.bit*half + p.right.position(w)
}

// setPosition writes the bits on w's path so that w lands at position x
// (Figure 9).
func (p *pnode) setPosition(w, x int) {
	if p.isLeaf() {
		return
	}
	half := p.leaves / 2
	hi := x / half // 0 or 1: which half of the position range
	if p.left.contains(w) {
		p.bit = 1 - hi
		p.left.setPosition(w, x%half)
	} else {
		p.bit = hi
		p.right.setPosition(w, x%half)
	}
}

// wayAt inverts position: which way currently occupies position x.
func (p *pnode) wayAt(x int) int {
	if p.isLeaf() {
		return p.way
	}
	half := p.leaves / 2
	if x/half == p.bit {
		return p.right.wayAt(x % half)
	}
	return p.left.wayAt(x % half)
}

// diffGeometries is every supported power-of-two associativity; the paper's
// LLC uses 16 ways but the primitives must hold for all of them.
var diffGeometries = []int{2, 4, 8, 16, 32, 64}

// checkAgree compares every observable of set in the production Trees with
// the pointer-based reference after access i of a differential run and
// fails with the diverging index: the victim, every way's position, that
// the positions form a permutation, and that the reference's wayAt inverts
// them.
func checkAgree(t *testing.T, i int, op string, tr *Trees, set uint32, ref *pnode) {
	t.Helper()
	k := tr.Ways()
	if got, want := tr.Victim(set), ref.victim(); got != want {
		t.Fatalf("k=%d access %d (%s): Victim = %d, reference tree says %d (word %#x)",
			k, i, op, got, want, tr.Word(set))
	}
	seen := make([]bool, k)
	for w := 0; w < k; w++ {
		got, want := tr.Position(set, w), ref.position(w)
		if got != want {
			t.Fatalf("k=%d access %d (%s): Position(%d) = %d, reference tree says %d (word %#x)",
				k, i, op, w, got, want, tr.Word(set))
		}
		if got < 0 || got >= k || seen[got] {
			t.Fatalf("k=%d access %d (%s): positions are not a permutation (way %d -> %d, word %#x)",
				k, i, op, w, got, tr.Word(set))
		}
		seen[got] = true
		if back := ref.wayAt(got); back != w {
			t.Fatalf("k=%d access %d (%s): reference wayAt(position(%d)) = %d, want %d",
				k, i, op, w, back, w)
		}
	}
}

// TestDifferentialRandomSequence drives Trees and the pointer-based
// reference through the same long seeded random access sequence, checking
// every observable after every access. Any divergence reports the first
// failing access index so the offending prefix can be replayed.
func TestDifferentialRandomSequence(t *testing.T) {
	accesses := 10_000
	if testing.Short() {
		accesses = 1_000
	}
	for _, k := range diffGeometries {
		t.Run(sizeName(k), func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(0xD1FF + uint64(k))
			tr := New(1, k)
			ref := buildPtr(0, k)
			checkAgree(t, -1, "init", &tr, 0, ref)
			for i := 0; i < accesses; i++ {
				var op string
				switch rng.Intn(4) {
				case 0: // hit-style promotion of a random way
					w := rng.Intn(k)
					op = "promote"
					tr.SetPosition(0, w, 0)
					ref.promote(w)
				case 1: // miss-style: evict the victim, insert at a random position
					v := tr.Victim(0)
					x := rng.Intn(k)
					op = "victim+setpos"
					tr.SetPosition(0, v, x)
					ref.setPosition(v, x)
				case 2: // IPV-style: move a random way to a random position
					w, x := rng.Intn(k), rng.Intn(k)
					op = "setpos"
					tr.SetPosition(0, w, x)
					ref.setPosition(w, x)
				case 3: // promote the current PMRU block (idempotence probe)
					w := ref.wayAt(0)
					op = "repromote"
					tr.SetPosition(0, w, 0)
					ref.promote(w)
				}
				checkAgree(t, i, op, &tr, 0, ref)
			}
		})
	}
}

// TestDifferentialAdversarialBits additionally seeds the pair with random
// raw bit states (via a raw word and a matching recursive write) so
// agreement does not depend on states reachable from the zero tree alone.
func TestDifferentialAdversarialBits(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	for _, k := range diffGeometries {
		t.Run(sizeName(k), func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(0xBEEF + uint64(k))
			tr := New(1, k)
			for round := 0; round < rounds; round++ {
				tr.load(0, rng.Uint64())
				ref := buildPtr(0, k)
				loadBits(ref, tr.Word(0))
				checkAgree(t, round, "setbits", &tr, 0, ref)
				// A few follow-up operations from the adversarial state.
				for i := 0; i < 8; i++ {
					w, x := rng.Intn(k), rng.Intn(k)
					tr.SetPosition(0, w, x)
					ref.setPosition(w, x)
					v := tr.Victim(0)
					tr.SetPosition(0, v, 0)
					ref.promote(ref.victim())
					checkAgree(t, round*8+i, "adversarial-followup", &tr, 0, ref)
				}
			}
		})
	}
}

// FuzzTrees decodes a way count in 2..MaxWays (a power of two) from the
// first byte and then (set, way, position) moves over two sets from byte
// triples. After every move the moved set must match its pointer model
// and the other set's word must be unchanged; both sets are checked in
// full at the end.
func FuzzTrees(f *testing.F) {
	f.Add([]byte{3, 0, 15, 0, 1, 3, 9})
	f.Add([]byte{5, 1, 63, 0, 0, 0, 63})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := diffGeometries[int(data[0])%len(diffGeometries)]
		tr := New(2, k)
		refs := []*pnode{buildPtr(0, k), buildPtr(0, k)}
		for i := 0; len(data) >= 4; i, data = i+1, data[3:] {
			set := uint32(data[1] & 1)
			w, x := int(data[2])%k, int(data[3])%k
			other := tr.Word(1 - set)
			tr.SetPosition(set, w, x)
			refs[set].setPosition(w, x)
			checkAgree(t, i, "setpos", &tr, set, refs[set])
			if tr.Word(1-set) != other {
				t.Fatalf("k=%d move %d in set %d changed set %d's word", k, i, set, 1-set)
			}
		}
		checkAgree(t, -1, "end", &tr, 0, refs[0])
		checkAgree(t, -1, "end", &tr, 1, refs[1])
	})
}

// loadBits copies a raw state word into the reference tree by walking it
// in implicit-heap order, keeping the copy trivially auditable without
// giving the reference any bit arithmetic of its own.
func loadBits(ref *pnode, word uint64) {
	var walk func(p *pnode, node uint32)
	walk = func(p *pnode, node uint32) {
		if p.isLeaf() {
			return
		}
		p.bit = int(word >> node & 1)
		walk(p.left, 2*node)
		walk(p.right, 2*node+1)
	}
	walk(ref, 1)
}

func sizeName(k int) string {
	return map[int]string{2: "k=2", 4: "k=4", 8: "k=8", 16: "k=16", 32: "k=32", 64: "k=64"}[k]
}
