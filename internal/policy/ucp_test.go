package policy

import "testing"

func TestUMONCountsHitPositions(t *testing.T) {
	u := newUMON(4)
	// Access pattern in one set: a b a -> a hits at position 1.
	u.access(0, 100)
	u.access(0, 101)
	u.access(0, 100)
	if u.hits[1] != 1 {
		t.Fatalf("hits %v", u.hits)
	}
	if u.misses != 2 {
		t.Fatalf("misses %d", u.misses)
	}
	// Immediate re-access hits at position 0.
	u.access(0, 100)
	if u.hits[0] != 1 {
		t.Fatalf("hits %v", u.hits)
	}
}

func TestUMONATDBoundedByWays(t *testing.T) {
	u := newUMON(4)
	for b := uint64(0); b < 100; b++ {
		u.access(0, b)
	}
	if len(u.tags[0]) > 4 {
		t.Fatalf("ATD grew to %d entries", len(u.tags[0]))
	}
}

func TestUMONDecay(t *testing.T) {
	u := newUMON(4)
	u.hits[2] = 9
	u.misses = 5
	u.decay()
	if u.hits[2] != 4 || u.misses != 2 {
		t.Fatalf("decay gave hits=%d misses=%d", u.hits[2], u.misses)
	}
}

func TestUCPAllocateGreedy(t *testing.T) {
	// Core 0 has utility concentrated at low positions (small working
	// set); core 1 keeps gaining through deep positions. With 8 ways the
	// greedy allocation must give core 1 the larger share.
	a, b := newUMON(8), newUMON(8)
	a.hits = []uint64{100, 50, 0, 0, 0, 0, 0, 0}
	b.hits = []uint64{100, 90, 80, 70, 60, 50, 40, 30}
	alloc := ucpAllocate([]*umon{a, b}, 8)
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation %v does not sum to ways", alloc)
	}
	if alloc[1] <= alloc[0] {
		t.Fatalf("high-utility core got %v", alloc)
	}
	if alloc[0] < 1 {
		t.Fatal("every core must keep at least one way")
	}
}

func TestUCPAllocateEqualUtility(t *testing.T) {
	a, b := newUMON(8), newUMON(8)
	for i := range a.hits {
		a.hits[i], b.hits[i] = 10, 10
	}
	alloc := ucpAllocate([]*umon{a, b}, 8)
	if alloc[0]+alloc[1] != 8 || alloc[0] < 3 || alloc[1] < 3 {
		t.Fatalf("equal utility split %v", alloc)
	}
}
