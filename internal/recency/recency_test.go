package recency

import (
	"slices"
	"testing"

	"gippr/internal/ipv"
	"gippr/internal/xrand"
)

// listStack is the test-only reference: one set's ways in an MRU-first
// list, moved by removing the way and inserting it at the target index.
type listStack []int

func newListStack(ways int) listStack {
	s := make(listStack, ways)
	for w := range s {
		s[w] = w
	}
	return s
}

func (s listStack) position(way int) int {
	for p, w := range s {
		if w == way {
			return p
		}
	}
	panic("way missing from the list")
}

func (s listStack) moveTo(way, target int) {
	from := s.position(way)
	rest := slices.Delete(slices.Clone(s), from, from+1)
	copy(s, slices.Insert(rest, target, way))
}

// checkAgainstList fails unless every way's position and the victim of set
// match the list.
func checkAgainstList(t *testing.T, l *Lanes, set uint32, ref listStack) {
	t.Helper()
	for p, w := range ref {
		if got := l.Position(set, w); got != p {
			t.Fatalf("ways %d set %d: way %d at %d, list says %d", len(ref), set, w, got, p)
		}
	}
	if got := l.Victim(set); got != ref[len(ref)-1] {
		t.Fatalf("ways %d set %d: victim %d, list says %d", len(ref), set, got, ref[len(ref)-1])
	}
}

func TestInitialLayout(t *testing.T) {
	for _, ways := range []int{2, 8, 9, 16, MaxWays} {
		l := New(3, ways)
		if l.Ways() != ways {
			t.Fatalf("Ways = %d, want %d", l.Ways(), ways)
		}
		for set := uint32(0); set < 3; set++ {
			checkAgainstList(t, &l, set, newListStack(ways))
		}
	}
}

func TestNewPanicsOnTinyK(t *testing.T) {
	for _, ways := range []int{-1, 0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(4, %d) did not panic", ways)
				}
			}()
			New(4, ways)
		}()
	}
}

func TestNewPanicsAboveMaxWays(t *testing.T) {
	for _, ways := range []int{MaxWays + 1, 256} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(4, %d) did not panic", ways)
				}
			}()
			New(4, ways)
		}()
	}
}

func TestTouchLRUClassicBehaviour(t *testing.T) {
	l := New(1, 4)
	// Promote way 2 (position 2) to MRU: ways at positions 0,1 shift down.
	l.MoveTo(0, 2, 0)
	want := map[int]int{2: 0, 0: 1, 1: 2, 3: 3} // way -> position
	for w, p := range want {
		if l.Position(0, w) != p {
			t.Fatalf("after promoting way 2: way %d at %d, want %d", w, l.Position(0, w), p)
		}
	}
	// Promoting the MRU block is a no-op.
	l.MoveTo(0, 2, 0)
	for w, p := range want {
		if l.Position(0, w) != p {
			t.Fatal("promoting MRU changed the stack")
		}
	}
}

func TestMoveToDownShifts(t *testing.T) {
	l := New(1, 8)
	// Move way 5 (position 5) to position 1: positions 1..4 shift down.
	l.MoveTo(0, 5, 1)
	for _, c := range []struct{ way, pos int }{{0, 0}, {5, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 6}, {7, 7}} {
		if l.Position(0, c.way) != c.pos {
			t.Fatalf("way %d at %d, want %d", c.way, l.Position(0, c.way), c.pos)
		}
	}
}

func TestMoveToUpShifts(t *testing.T) {
	l := New(1, 8)
	// Move way 2 (position 2) to position 6: positions 3..6 shift up.
	l.MoveTo(0, 2, 6)
	for _, c := range []struct{ way, pos int }{{0, 0}, {1, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {2, 6}, {7, 7}} {
		if l.Position(0, c.way) != c.pos {
			t.Fatalf("way %d at %d, want %d", c.way, l.Position(0, c.way), c.pos)
		}
	}
}

func TestMoveToLeavesOtherSetsAlone(t *testing.T) {
	l := New(3, 12)
	l.MoveTo(1, 11, 0)
	l.MoveTo(1, 3, 10)
	checkAgainstList(t, &l, 0, newListStack(12))
	checkAgainstList(t, &l, 2, newListStack(12))
}

func TestMoveToPanicsOutOfRange(t *testing.T) {
	l := New(2, 4)
	for _, x := range []int{-1, 4, MaxWays} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MoveTo(0, 0, %d) did not panic", x)
				}
			}()
			l.MoveTo(0, 0, x)
		}()
	}
	checkAgainstList(t, &l, 0, newListStack(4))
}

func TestNonPowerOfTwoAssociativity(t *testing.T) {
	// True LRU has no power-of-two requirement.
	l := New(1, 6)
	l.MoveTo(0, 3, 0)
	l.MoveTo(0, 5, 2)
	if v := l.Victim(0); v == 3 || v == 5 {
		t.Fatalf("recently moved way %d is the victim", v)
	}
	ref := newListStack(6)
	ref.moveTo(3, 0)
	ref.moveTo(5, 2)
	checkAgainstList(t, &l, 0, ref)
}

func TestTouchFollowsVector(t *testing.T) {
	// Paper Section 2.4 example: V = [0,...,0, k/2, k-1]: a block
	// referenced at LRU moves to the middle, referenced again moves to MRU.
	k := 16
	v := ipv.MidClimb(k)
	l := New(1, k)
	w := l.Victim(0) // way at LRU position
	l.MoveTo(0, w, v.Promotion(l.Position(0, w)))
	if l.Position(0, w) != k/2 {
		t.Fatalf("first touch: position %d, want %d", l.Position(0, w), k/2)
	}
	l.MoveTo(0, w, v.Promotion(l.Position(0, w)))
	if l.Position(0, w) != 0 {
		t.Fatalf("second touch: position %d, want 0", l.Position(0, w))
	}
}

func TestFillInsertsAtVectorPosition(t *testing.T) {
	l := New(1, 16)
	victim := l.Victim(0)
	l.MoveTo(0, victim, ipv.PaperGIPLR.Insertion()) // insertion at 13
	if l.Position(0, victim) != 13 {
		t.Fatalf("fill position %d, want 13", l.Position(0, victim))
	}
}

func TestFillLRUVector(t *testing.T) {
	l := New(1, 8)
	victim := l.Victim(0)
	l.MoveTo(0, victim, ipv.LRU(8).Insertion())
	if l.Position(0, victim) != 0 {
		t.Fatalf("LRU fill landed at %d", l.Position(0, victim))
	}
}

func TestFillLIPVectorKeepsVictimInPlace(t *testing.T) {
	l := New(1, 8)
	l.MoveTo(0, l.Victim(0), ipv.LIP(8).Insertion())
	checkAgainstList(t, &l, 0, newListStack(8))
}

func TestPermutationInvariant(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8, 16} {
		l := New(1, k)
		rng := xrand.New(uint64(k))
		for i := 0; i < 1000; i++ {
			l.MoveTo(0, rng.Intn(k), rng.Intn(k))
			seen := make([]bool, k)
			for w := 0; w < k; w++ {
				p := l.Position(0, w)
				if p < 0 || p >= k || seen[p] {
					t.Fatalf("k=%d: positions not a permutation at way %d", k, w)
				}
				seen[p] = true
			}
			if l.Position(0, l.Victim(0)) != k-1 {
				t.Fatalf("k=%d: victim %d is not at the LRU position", k, l.Victim(0))
			}
		}
	}
}

// TestMoveToMatchesList drives random (set, way, target) moves on several
// sets at associativities that fill whole words, leave parked tail lanes,
// or reach the 7-bit bound, and requires every position and the victim to
// match the list model after every move.
func TestMoveToMatchesList(t *testing.T) {
	for _, ways := range []int{2, 3, 5, 8, 12, 16, 24, 64, MaxWays} {
		const sets = 4
		l := New(sets, ways)
		refs := make([]listStack, sets)
		for i := range refs {
			refs[i] = newListStack(ways)
		}
		rng := xrand.New(0xD1FF ^ uint64(ways))
		rounds := 4000
		if testing.Short() {
			rounds = 400
		}
		for i := 0; i < rounds; i++ {
			set := uint32(rng.Intn(sets))
			w, target := rng.Intn(ways), rng.Intn(ways)
			l.MoveTo(set, w, target)
			refs[set].moveTo(w, target)
			checkAgainstList(t, &l, set, refs[set])
		}
	}
}

// FuzzMoveTo decodes a way count in 2..MaxWays from the first byte and
// then (set, way, target) moves over two sets from byte triples, checking
// every move against the list model.
func FuzzMoveTo(f *testing.F) {
	f.Add([]byte{14, 0, 15, 0, 1, 3, 9})
	f.Add([]byte{125, 1, 126, 0, 0, 0, 126})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := 2 + int(data[0])%(MaxWays-1)
		l := New(2, ways)
		refs := []listStack{newListStack(ways), newListStack(ways)}
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			set := uint32(data[0] & 1)
			w, target := int(data[1])%ways, int(data[2])%ways
			l.MoveTo(set, w, target)
			refs[set].moveTo(w, target)
			checkAgainstList(t, &l, set, refs[set])
		}
		checkAgainstList(t, &l, 0, refs[0])
		checkAgainstList(t, &l, 1, refs[1])
	})
}

func BenchmarkTouchLRU16(b *testing.B) {
	l := New(1, 16)
	for i := 0; i < b.N; i++ {
		l.MoveTo(0, i&15, 0)
	}
}

func BenchmarkTouchVector16(b *testing.B) {
	v := ipv.PaperGIPLR
	l := New(1, 16)
	for i := 0; i < b.N; i++ {
		w := i & 15
		l.MoveTo(0, w, v.Promotion(l.Position(0, w)))
	}
}
