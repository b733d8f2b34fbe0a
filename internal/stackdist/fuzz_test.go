package stackdist

import (
	"encoding/binary"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/trace"
)

// FuzzOnePassConsistency feeds arbitrary byte streams through the one-pass
// engine and cross-checks every lattice point against the independent naive
// LRU model (all associativities, including direct-mapped) and the
// production replay engine (ways >= 2), and the grouped PLRU geometry
// against the per-record scalar reference scalarPLRU. Any
// divergence is a stack-distance bug the differential tests' fixed streams
// might never hit.
func FuzzOnePassConsistency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	seed := make([]byte, 256)
	s := uint64(0xdead)
	for i := range seed {
		seed[i] = byte(splitmix64(&s))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 4096 {
			n = 4096
		}
		stream := make([]trace.Record, n)
		for i := range stream {
			v := binary.LittleEndian.Uint64(data[i*8:])
			stream[i] = trace.Record{
				// A 15-bit address space keeps reuse frequent at every
				// lattice depth instead of degenerating to all-cold misses.
				Addr:  v & (1<<15 - 1),
				Gap:   uint32(1 + (v>>15)&3),
				Write: v&(1<<20) != 0,
			}
		}
		opts := Options{
			BlockBytes: 64, MinSets: 4, MaxSets: 16, MaxWays: 4,
			Warm: n / 4,
			PLRU: []Geometry{{Sets: 8, Ways: 4}},
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
			if r.Accesses != acc || r.Hits != hits {
				t.Fatalf("%s: one-pass (acc %d, hits %d) != naive (acc %d, hits %d)",
					r.Label(), r.Accesses, r.Hits, acc, hits)
			}
			if r.Ways < 2 {
				continue
			}
			rs := cache.ReplayStream(stream, lruConfig(r.Sets, r.Ways, opts.BlockBytes),
				policy.NewTrueLRU(r.Sets, r.Ways), opts.Warm)
			if r.Hits != rs.Hits || r.Misses != rs.Misses {
				t.Fatalf("%s: one-pass (hits %d, miss %d) != replay (hits %d, miss %d)",
					r.Label(), r.Hits, r.Misses, rs.Hits, rs.Misses)
			}
		}
		g := opts.PLRU[0]
		r, _ := sw.Find(PolicyPLRU, g.Sets, g.Ways)
		ps := scalarPLRU(stream, g.Sets, g.Ways, opts.BlockBytes, opts.Warm)
		if r.Hits != ps.Hits || r.Misses != ps.Misses {
			t.Fatalf("plru: grouped (hits %d, miss %d) != replay (hits %d, miss %d)",
				r.Hits, r.Misses, ps.Hits, ps.Misses)
		}
	})
}
