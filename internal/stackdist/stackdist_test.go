package stackdist

import (
	"errors"
	"fmt"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/trace"
)

// splitmix64 is the test's own PRNG so stream generation cannot drift with
// library changes.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthStream mixes strided scans (high spatial locality) with random
// references over a bounded address space (forcing reuse at many stack
// depths), the access pattern shape the lattice must get right.
func synthStream(n int, seed uint64) []trace.Record {
	s := seed
	out := make([]trace.Record, n)
	var stride uint64
	for i := range out {
		r := splitmix64(&s)
		var addr uint64
		if r&1 == 0 {
			stride += 64
			addr = stride & (1<<18 - 1)
		} else {
			addr = (r >> 8) & (1<<20 - 1)
		}
		out[i] = trace.Record{
			Gap:   uint32(1 + r&7),
			PC:    r >> 32,
			Addr:  addr,
			Write: r&0x10 != 0,
		}
	}
	return out
}

// naiveLRU is an independent per-geometry true-LRU reference: per-set MRU
// slices with none of the engine's forest/histogram machinery. It handles
// any ways >= 1, including the direct-mapped points policy.NewTrueLRU
// cannot express.
func naiveLRU(stream []trace.Record, blockBytes, sets, ways, warm int) (accesses, hits uint64) {
	shift := 0
	for 1<<shift < blockBytes {
		shift++
	}
	mru := make([][]uint64, sets)
	if warm > len(stream) {
		warm = len(stream)
	}
	for i, r := range stream {
		block := r.Addr >> shift
		set := int(block & uint64(sets-1))
		s := mru[set]
		pos := -1
		for j, b := range s {
			if b == block {
				pos = j
				break
			}
		}
		if pos >= 0 {
			s = append(s[:pos], s[pos+1:]...)
		} else if len(s) == ways {
			s = s[:ways-1]
		}
		mru[set] = append([]uint64{block}, s...)
		if i >= warm {
			accesses++
			if pos >= 0 {
				hits++
			}
		}
	}
	return accesses, hits
}

// lruConfig builds the cache.Config of one lattice point for direct replay.
func lruConfig(sets, ways, blockBytes int) cache.Config {
	return cache.Config{
		Name:       fmt.Sprintf("lat-%dx%d", sets, ways),
		SizeBytes:  sets * ways * blockBytes,
		Ways:       ways,
		BlockBytes: blockBytes,
	}
}

// scalarPLRU is the per-record tree-PLRU reference: a cache.New +
// policy.NewPLRU cache driven one Access at a time, with ResetStats at the
// warm boundary. Run carries its PLRU points on the cache's inline IPV step
// (and so does cache.ReplayStream), so the policy here is wrapped to hide
// its PackedIPV method and run its callbacks instead, which keeps the
// check a comparison of two paths.
func scalarPLRU(stream []trace.Record, sets, ways, blockBytes, warm int) cache.Stats {
	c := cache.New(lruConfig(sets, ways, blockBytes), struct{ cache.Policy }{policy.NewPLRU(sets, ways)})
	warm = min(warm, len(stream))
	for _, r := range stream[:warm] {
		c.Access(r)
	}
	c.ResetStats()
	for _, r := range stream[warm:] {
		c.Access(r)
	}
	return c.Stats
}

func TestOptionsValidate(t *testing.T) {
	ok := Options{BlockBytes: 64, MinSets: 16, MaxSets: 64, MaxWays: 8,
		PLRU: []Geometry{{Sets: 64, Ways: 8}}}
	cases := []struct {
		name   string
		mutate func(*Options)
		bad    bool
	}{
		{"valid", func(o *Options) {}, false},
		{"single set count", func(o *Options) { o.MaxSets = 16 }, false},
		{"no plru", func(o *Options) { o.PLRU = nil }, false},
		{"block not pow2", func(o *Options) { o.BlockBytes = 48 }, true},
		{"block zero", func(o *Options) { o.BlockBytes = 0 }, true},
		{"min sets not pow2", func(o *Options) { o.MinSets = 3 }, true},
		{"max sets not pow2", func(o *Options) { o.MaxSets = 65 }, true},
		{"min above max", func(o *Options) { o.MinSets = 128 }, true},
		{"zero ways", func(o *Options) { o.MaxWays = 0 }, true},
		{"ways beyond lattice cap", func(o *Options) { o.MaxWays = MaxLatticeWays + 1 }, true},
		{"negative warm", func(o *Options) { o.Warm = -1 }, true},
		{"plru sets not pow2", func(o *Options) { o.PLRU = []Geometry{{Sets: 3, Ways: 4}} }, true},
		{"plru ways one", func(o *Options) { o.PLRU = []Geometry{{Sets: 16, Ways: 1}} }, true},
		{"plru ways not pow2", func(o *Options) { o.PLRU = []Geometry{{Sets: 16, Ways: 6}} }, true},
		{"plru ways beyond tree capacity", func(o *Options) { o.PLRU = []Geometry{{Sets: 16, Ways: 128}} }, true},
		// The slot bound: without it each of these resolves, and running
		// the first throws out-of-memory, which no recover catches.
		{"lattice beyond slot bound", func(o *Options) {
			o.MinSets, o.MaxSets, o.MaxWays, o.PLRU = 1<<33, 1<<33, 1, nil
		}, true},
		{"plru beyond slot bound", func(o *Options) { o.PLRU = []Geometry{{Sets: 1 << 33, Ways: 16}} }, true},
		{"slot sum overflows int", func(o *Options) {
			o.MinSets, o.MaxSets, o.MaxWays, o.PLRU = 1, 1<<62, MaxLatticeWays, nil
		}, true},
		{"one slot over the bound", func(o *Options) {
			o.MinSets, o.MaxSets, o.MaxWays = 1<<13, 1<<13, MaxLatticeWays
			o.PLRU = []Geometry{{Sets: 1, Ways: 2}}
		}, true},
		{"at the slot bound", func(o *Options) {
			o.MinSets, o.MaxSets, o.MaxWays, o.PLRU = 1<<13, 1<<13, MaxLatticeWays, nil
		}, false},
		{"largest benchmark lattice", func(o *Options) {
			o.MinSets, o.MaxSets, o.MaxWays = 512, 4096, 32
			o.PLRU = []Geometry{{Sets: 8192, Ways: 16}}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ok
			o.PLRU = append([]Geometry(nil), ok.PLRU...)
			tc.mutate(&o)
			err := o.Validate()
			if tc.bad && !errors.Is(err, cache.ErrBadGeometry) {
				t.Fatalf("Validate() = %v, want cache.ErrBadGeometry", err)
			}
			if !tc.bad && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if _, runErr := Run(nil, o); (runErr != nil) != (err != nil) {
				t.Fatalf("Run validation disagrees with Validate: %v vs %v", runErr, err)
			}
		})
	}
}

func TestLatticeOrderAndPoints(t *testing.T) {
	o := Options{BlockBytes: 64, MinSets: 16, MaxSets: 64, MaxWays: 3,
		PLRU: []Geometry{{Sets: 32, Ways: 4}}}
	pts := o.Lattice()
	if len(pts) != o.Points() {
		t.Fatalf("Lattice has %d points, Points() says %d", len(pts), o.Points())
	}
	if want := 3*3 + 1; len(pts) != want {
		t.Fatalf("Points() = %d, want %d", len(pts), want)
	}
	if pts[0] != (Point{PolicyLRU, 16, 1}) || pts[3] != (Point{PolicyLRU, 32, 1}) {
		t.Fatalf("unexpected lattice order: %v", pts)
	}
	last := pts[len(pts)-1]
	if last != (Point{PolicyPLRU, 32, 4}) {
		t.Fatalf("PLRU point misplaced: %v", last)
	}
	if got := last.Label(); got != "plru@32x4" {
		t.Fatalf("Label() = %q", got)
	}
	sw, err := Run(synthStream(2000, 7), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != len(pts) {
		t.Fatalf("Run produced %d results, want %d", len(sw.Results), len(pts))
	}
	for i, p := range pts {
		r := sw.Results[i]
		if r.Policy != p.Policy || r.Sets != p.Sets || r.Ways != p.Ways {
			t.Fatalf("result %d is %s, lattice says %s", i, r.Label(), p.Label())
		}
	}
	if _, ok := sw.Find(PolicyPLRU, 32, 4); !ok {
		t.Fatal("Find missed the PLRU point")
	}
	if _, ok := sw.Find(PolicyLRU, 999, 1); ok {
		t.Fatal("Find matched a point not in the sweep")
	}
}

// TestRunDifferential is the package-level half of the differential battery:
// every LRU lattice point must agree bit for bit with an independent naive
// per-geometry LRU model, every point with ways >= 2 additionally with the
// production cache.ReplayStream + policy.NewTrueLRU engine, and every PLRU
// point with a per-record scalar policy.NewPLRU replay (scalarPLRU).
func TestRunDifferential(t *testing.T) {
	stream := synthStream(6000, 0xF161)
	opts := Options{
		BlockBytes: 64, MinSets: 4, MaxSets: 32, MaxWays: 6,
		Warm: len(stream) / 3,
		PLRU: []Geometry{{Sets: 16, Ways: 4}, {Sets: 8, Ways: 8}},
	}
	sw, err := Run(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Results {
		if r.Policy != PolicyLRU {
			continue
		}
		acc, hits := naiveLRU(stream, opts.BlockBytes, r.Sets, r.Ways, opts.Warm)
		if r.Accesses != acc || r.Hits != hits || r.Misses != acc-hits {
			t.Errorf("%s: one-pass (acc %d, hits %d) != naive (acc %d, hits %d)",
				r.Label(), r.Accesses, r.Hits, acc, hits)
		}
		if r.Ways < 2 {
			continue // policy.validateGeometry requires ways >= 2
		}
		rs := cache.ReplayStream(stream, lruConfig(r.Sets, r.Ways, opts.BlockBytes),
			policy.NewTrueLRU(r.Sets, r.Ways), opts.Warm)
		if r.Accesses != rs.Accesses || r.Hits != rs.Hits || r.Misses != rs.Misses {
			t.Errorf("%s: one-pass (acc %d, hits %d, miss %d) != replay (acc %d, hits %d, miss %d)",
				r.Label(), r.Accesses, r.Hits, r.Misses, rs.Accesses, rs.Hits, rs.Misses)
		}
		if rs.Instructions != sw.Instructions {
			t.Errorf("%s: instructions %d != replay %d", r.Label(), sw.Instructions, rs.Instructions)
		}
	}
	for _, g := range opts.PLRU {
		r, ok := sw.Find(PolicyPLRU, g.Sets, g.Ways)
		if !ok {
			t.Fatalf("missing PLRU result %dx%d", g.Sets, g.Ways)
		}
		rs := scalarPLRU(stream, g.Sets, g.Ways, opts.BlockBytes, opts.Warm)
		if r.Accesses != rs.Accesses || r.Hits != rs.Hits || r.Misses != rs.Misses {
			t.Errorf("%s: grouped (acc %d, hits %d, miss %d) != replay (acc %d, hits %d, miss %d)",
				r.Label(), r.Accesses, r.Hits, r.Misses, rs.Accesses, rs.Hits, rs.Misses)
		}
	}
}

// TestInclusionMonotonicity is the stack property the whole engine rests
// on: at a fixed set count, hits never decrease as associativity grows.
func TestInclusionMonotonicity(t *testing.T) {
	stream := synthStream(8000, 42)
	opts := Options{BlockBytes: 64, MinSets: 4, MaxSets: 64, MaxWays: 12, Warm: 1000}
	sw, err := Run(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	byGeom := map[int]map[int]uint64{}
	for _, r := range sw.Results {
		if byGeom[r.Sets] == nil {
			byGeom[r.Sets] = map[int]uint64{}
		}
		byGeom[r.Sets][r.Ways] = r.Hits
	}
	for sets, hw := range byGeom {
		for w := 2; w <= opts.MaxWays; w++ {
			if hw[w] < hw[w-1] {
				t.Errorf("sets=%d: hits dropped from %d (ways %d) to %d (ways %d)",
					sets, hw[w-1], w-1, hw[w], w)
			}
		}
	}
}

// TestWarmBeyondStream checks the clamp mirroring cache.ReplayStream's: a
// warm-up longer than the stream measures nothing and must not panic.
func TestWarmBeyondStream(t *testing.T) {
	stream := synthStream(100, 1)
	sw, err := Run(stream, Options{BlockBytes: 64, MinSets: 4, MaxSets: 4, MaxWays: 2, Warm: 500})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Accesses != 0 || sw.Instructions != 0 {
		t.Fatalf("fully-warm sweep measured %d accesses, %d instructions", sw.Accesses, sw.Instructions)
	}
	for _, r := range sw.Results {
		if r.Hits != 0 || r.Misses != 0 {
			t.Fatalf("%s counted events in an empty window", r.Label())
		}
	}
}

func TestEmptyStream(t *testing.T) {
	sw, err := Run(nil, Options{BlockBytes: 64, MinSets: 4, MaxSets: 8, MaxWays: 2,
		PLRU: []Geometry{{Sets: 4, Ways: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sw.Results); got != 4+1 {
		t.Fatalf("empty stream produced %d results, want 5", got)
	}
	for _, r := range sw.Results {
		if r.Accesses != 0 || r.MPKI != 0 {
			t.Fatalf("%s: nonzero stats on empty stream: %+v", r.Label(), r)
		}
	}
}
