package dueling

import (
	"testing"

	"gippr/internal/xrand"
)

func TestCounterSaturation(t *testing.T) {
	c := NewCounter(3) // 0..7, starts at 4
	if c.Value() != 4 {
		t.Fatalf("initial value %d", c.Value())
	}
	for i := 0; i < 20; i++ {
		c.Up()
	}
	if c.Value() != 7 {
		t.Fatalf("saturated up at %d", c.Value())
	}
	for i := 0; i < 20; i++ {
		c.Down()
	}
	if c.Value() != 0 {
		t.Fatalf("saturated down at %d", c.Value())
	}
}

func TestCounterHigh(t *testing.T) {
	c := NewCounter(2) // 0..3, mid 2
	if !c.High() {
		t.Fatal("initial counter should be at midpoint (High)")
	}
	c.Down()
	if c.High() {
		t.Fatal("below midpoint still High")
	}
}

func TestCounterPanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{0, 31, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", w)
				}
			}()
			NewCounter(w)
		}()
	}
}

func TestSelectorLeaderCounts(t *testing.T) {
	const sets, policies, leaders = 4096, 2, 32
	s := NewSelector(sets, policies, leaders)
	counts := make([]int, policies)
	followers := 0
	for set := uint32(0); set < sets; set++ {
		if l := s.Leader(set); l >= 0 {
			counts[l]++
		} else {
			followers++
		}
	}
	for p, c := range counts {
		if c != leaders {
			t.Fatalf("policy %d has %d leader sets, want %d", p, c, leaders)
		}
	}
	if followers != sets-policies*leaders {
		t.Fatalf("followers = %d", followers)
	}
}

func TestSelectorLeadersSpread(t *testing.T) {
	// Leaders must be distributed across the index space, not clumped in
	// one half.
	s := NewSelector(4096, 4, 32)
	lower := 0
	for set := uint32(0); set < 2048; set++ {
		if s.Leader(set) >= 0 {
			lower++
		}
	}
	if lower != 64 { // half of 4*32
		t.Fatalf("leaders in lower half = %d, want 64", lower)
	}
}

func TestSelectorPanics(t *testing.T) {
	cases := [][3]int{{0, 2, 1}, {16, 0, 1}, {16, 2, 0}, {16, 2, 16}, {4, 8, 1}}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewSelector(c[0], c[1], c[2])
		}()
	}
}

func TestDuelFollowsWinner(t *testing.T) {
	d := NewDuel(1024, 2, 32, 10)
	// Policy 0's leader sets miss a lot: counter goes up, winner is 1.
	leader0 := uint32(0) // offset 0 of each period leads policy 0
	for i := 0; i < 600; i++ {
		d.OnMiss(leader0)
	}
	if d.Winner() != 1 {
		t.Fatalf("winner = %d after policy 0 missed heavily", d.Winner())
	}
	// A follower set uses the winner; leader sets always use themselves.
	if d.Choose(5) != 1 {
		t.Fatal("follower not using winner")
	}
	if d.Choose(0) != 0 || d.Choose(1) != 1 {
		t.Fatal("leaders not using their own policy")
	}
	// Now policy 1 misses even more: winner flips back.
	leader1 := uint32(1)
	for i := 0; i < 1200; i++ {
		d.OnMiss(leader1)
	}
	if d.Winner() != 0 {
		t.Fatalf("winner = %d after policy 1 missed heavily", d.Winner())
	}
}

func TestDuelIgnoresFollowerMisses(t *testing.T) {
	d := NewDuel(1024, 2, 32, 10)
	before := d.Winner()
	for i := 0; i < 1000; i++ {
		d.OnMiss(7) // follower set
	}
	if d.Winner() != before {
		t.Fatal("follower misses moved the counter")
	}
}

func TestTournamentWinner(t *testing.T) {
	tour := NewDuel(4096, 4, 32, 11)
	miss := func(leader uint32, n int) {
		for i := 0; i < n; i++ {
			tour.OnMiss(leader)
		}
	}
	// Pair (0,1) misses heavily -> meta prefers pair (2,3); within it,
	// policy 2's leaders miss more -> winner 3.
	miss(0, 1500)
	miss(1, 1500)
	miss(2, 300)
	if got := tour.Winner(); got != 3 {
		t.Fatalf("winner = %d, want 3", got)
	}
	// Followers adopt the winner; leaders stay on their own policy.
	if tour.Choose(9) != 3 {
		t.Fatal("follower not on winner")
	}
	for p := uint32(0); p < 4; p++ {
		if tour.Choose(p) != int(p) {
			t.Fatalf("leader %d not on its own policy", p)
		}
	}
	// Pair (2,3) misses even more -> back to pair (0,1); then policy 0's
	// leaders miss enough that 1 wins the pair.
	miss(2, 2000)
	miss(3, 2000)
	miss(0, 1000)
	if got := tour.Winner(); got != 1 {
		t.Fatalf("winner = %d, want 1", got)
	}
}

func TestTournamentBalancedPrefersFirst(t *testing.T) {
	tour := NewDuel(4096, 4, 32, 11)
	// With balanced counters Winner must still be deterministic.
	if w := tour.Winner(); w < 0 || w > 3 {
		t.Fatalf("winner = %d", w)
	}
}

// refPSEL is the two-policy duel written out by hand with one PSEL counter
// (Qureshi et al.): the reference Duel must match at two policies.
type refPSEL struct {
	sel  *Selector
	psel Counter
}

func newRefPSEL(sets, leaders, bits int) *refPSEL {
	return &refPSEL{sel: NewSelector(sets, 2, leaders), psel: NewCounter(bits)}
}

func (d *refPSEL) OnMiss(set uint32) {
	switch d.sel.Leader(set) {
	case 0:
		d.psel.Up()
	case 1:
		d.psel.Down()
	}
}

func (d *refPSEL) Winner() int {
	if d.psel.High() {
		return 1 // policy 0 has been missing more
	}
	return 0
}

// refTournament is Loh's four-policy tournament written out by hand: pair
// counters for (0,1) and (2,3) and a meta counter between the pairs. The
// reference Duel must match at four policies.
type refTournament struct {
	sel            *Selector
	c01, c23, meta Counter
}

func newRefTournament(sets, leaders, bits int) *refTournament {
	return &refTournament{sel: NewSelector(sets, 4, leaders),
		c01: NewCounter(bits), c23: NewCounter(bits), meta: NewCounter(bits)}
}

func (t *refTournament) OnMiss(set uint32) {
	switch t.sel.Leader(set) {
	case 0:
		t.c01.Up()
		t.meta.Up()
	case 1:
		t.c01.Down()
		t.meta.Up()
	case 2:
		t.c23.Up()
		t.meta.Down()
	case 3:
		t.c23.Down()
		t.meta.Down()
	}
}

func (t *refTournament) Winner() int {
	if t.meta.High() { // pair (0,1) missing more: use pair (2,3)
		if t.c23.High() {
			return 3
		}
		return 2
	}
	if t.c01.High() {
		return 1
	}
	return 0
}

type refDuel interface {
	OnMiss(set uint32)
	Winner() int
}

// refChoose is the follower rule both references share: leaders use their
// own policy, followers the winner.
func refChoose(sel *Selector, ref refDuel, set uint32) int {
	if l := sel.Leader(set); l >= 0 {
		return l
	}
	return ref.Winner()
}

func TestBracketMatchesTournamentSemantics(t *testing.T) {
	// A 4-policy Duel and the hand-written tournament must agree on the
	// winner for any miss pattern (they are the same structure).
	br := NewDuel(4096, 4, 32, 11)
	tour := newRefTournament(4096, 32, 11)
	seqs := [][2]uint32{{0, 1500}, {1, 1500}, {2, 300}, {3, 100}, {0, 50}, {2, 900}}
	for _, s := range seqs {
		for i := uint32(0); i < s[1]; i++ {
			br.OnMiss(s[0])
			tour.OnMiss(s[0])
		}
		if br.Winner() != tour.Winner() {
			t.Fatalf("bracket winner %d != tournament winner %d after leader %d",
				br.Winner(), tour.Winner(), s[0])
		}
	}
}

// TestDuelMatchesReferences drives Duel at two and four policies and the
// hand-written PSEL and tournament with the same random miss sequences,
// mostly in leader sets and biased toward one policy at a time so the
// counters cross their midpoints and saturate. After every miss the winner
// and every set's choice must agree.
func TestDuelMatchesReferences(t *testing.T) {
	rng := xrand.New(0xd0e1)
	for _, policies := range []int{2, 4} {
		for _, sets := range []int{8, 64, 1024} {
			for _, leaders := range []int{1, 2, sets / (2 * policies)} {
				for _, bits := range []int{1, 3, 6} {
					d := NewDuel(sets, policies, leaders, bits)
					sel := NewSelector(sets, policies, leaders)
					var ref refDuel
					if policies == 2 {
						ref = newRefPSEL(sets, leaders, bits)
					} else {
						ref = newRefTournament(sets, leaders, bits)
					}
					check := func(miss int) {
						if d.Winner() != ref.Winner() {
							t.Fatalf("%d policies, %d sets, %d leaders, %d bits, after %d misses: winner %d, reference %d",
								policies, sets, leaders, bits, miss, d.Winner(), ref.Winner())
						}
						for s := uint32(0); s < uint32(sets); s++ {
							if got, want := d.Choose(s), refChoose(sel, ref, s); got != want {
								t.Fatalf("%d policies, %d sets, %d leaders, %d bits, after %d misses: set %d chose %d, reference %d",
									policies, sets, leaders, bits, miss, s, got, want)
							}
						}
					}
					check(0)
					period := sets / leaders
					misses := 400
					if testing.Short() {
						misses = 100
					}
					for i := 1; i <= misses; i++ {
						// A leader set of a random policy, favouring one
						// policy per phase; sometimes a follower.
						p := rng.Intn(policies)
						if rng.Intn(3) > 0 {
							p = i / 50 % policies
						}
						set := uint32(rng.Intn(leaders)*period + p)
						if rng.Intn(8) == 0 {
							set = uint32(rng.Intn(sets))
						}
						d.OnMiss(set)
						ref.OnMiss(set)
						check(i)
					}
				}
			}
		}
	}
}

func TestBracketEightPolicies(t *testing.T) {
	b := NewDuel(4096, 8, 16, 11)
	// Every policy's leaders miss except policy 5's, with the misses
	// interleaved as real traffic would be (sequential bursts would
	// saturate the counters and lose the counts).
	for i := 0; i < 3000; i++ {
		for p := uint32(0); p < 8; p++ {
			if p == 5 {
				continue
			}
			b.OnMiss(p)
		}
	}
	if got := b.Winner(); got != 5 {
		t.Fatalf("winner %d, want the only quiet policy 5", got)
	}
	// Leaders stay on their own policy, followers adopt the winner.
	for p := uint32(0); p < 8; p++ {
		if b.Choose(p) != int(p) {
			t.Fatalf("leader %d not on itself", p)
		}
	}
	if b.Choose(100) != 5 {
		t.Fatal("follower not on winner")
	}
}

func TestBracketPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bracket size %d accepted", n)
				}
			}()
			NewDuel(4096, n, 8, 11)
		}()
	}
}
