package policy

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// updateFingerprint rewrites testdata/fingerprint.json from the current
// policies:
//
//	go test ./internal/policy -run TestPolicyFingerprint -update
//
// Review the diff before committing: any change means some policy no longer
// makes the decisions it made when the file was written.
var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.json with the current policies' outcomes")

const fingerprintPath = "testdata/fingerprint.json"

// fingerprintRecords is the stream length: enough for six UMON epochs,
// several duel flips and trained signature counters.
const fingerprintRecords = 400_000

// fingerprintConfig is one 256-set x 16-way cache of 64-byte blocks.
var fingerprintConfig = cache.Config{Name: "fp", SizeBytes: 256 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}

// fingerprint is what one policy did with the stream.
type fingerprint struct {
	Name       string `json:"name"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
	// Sequence is the FNV-64a hash of the hit/miss outcomes, one bit per
	// access, packed eight to a byte.
	Sequence string `json:"sequence"`
}

// fingerprintCases is every registry policy plus the constructors the
// registry does not reach: RRIPV under two vectors, GIPPR+bypass and
// PIPP-dyn over four cores.
func fingerprintCases() map[string]func(sets, ways int) cache.Policy {
	cases := map[string]func(sets, ways int) cache.Policy{
		"rripv-fp": func(s, w int) cache.Policy { return NewRRIPV(s, w, SRRIPFPVector) },
		"rripv-1032-3": func(s, w int) cache.Policy {
			return NewRRIPV(s, w, RRIPVector{Promote: [4]uint8{1, 0, 3, 2}, Insert: 3})
		},
		"gippr+bypass": func(s, w int) cache.Policy { return NewBypassGIPPR(s, w, ipv.PaperWIGIPPR) },
		"pipp-dyn-4":   func(s, w int) cache.Policy { return NewPIPPDyn(s, w, 4) },
	}
	for _, name := range Names() {
		f, _ := Lookup(name)
		cases[name] = f.New
	}
	return cases
}

// fingerprintStream returns n deterministic records in eight phases that
// alternate between a thrash-heavy and a reuse-friendly mix of four
// components, one per core: a loop a quarter of the cache (core 0), a loop
// 1.5 times the cache (core 1), a scan that re-reads each block once 512
// blocks later (core 2) and uniform reuse over twice the cache (core 3).
// Each component issues from its own 16 PCs, and one record in five is a
// write.
func fingerprintStream(n int) []trace.Record {
	const blocks = 256 * 16
	mixes := [2][4]int{{30, 50, 10, 10}, {35, 0, 45, 20}} // percent per component
	rng := xrand.New(0xf19e)
	recs := make([]trace.Record, n)
	var fit, thrash, scan uint64
	for i := range recs {
		mix := mixes[i/(n/8)%2]
		c, roll := 0, rng.Intn(100)
		for roll >= mix[c] {
			roll -= mix[c]
			c++
		}
		base := uint64(c) << 24
		var block uint64
		switch c {
		case 0:
			block = fit % (blocks / 4)
			fit++
		case 1:
			block = thrash % (blocks * 3 / 2)
			thrash++
		case 2:
			block = scan / 2
			if scan%2 == 1 && block >= 512 {
				block -= 512
			}
			scan++
		default:
			block = rng.Uint64n(2 * blocks)
		}
		recs[i] = trace.Record{
			PC:    0x400000 + uint64(c*16+rng.Intn(16))*4,
			Addr:  (base + block) * 64,
			Gap:   1,
			Write: rng.OneIn(5),
			Core:  uint8(c),
		}
	}
	return recs
}

// runFingerprint replays recs through a fresh cache over pol.
func runFingerprint(pol cache.Policy, recs []trace.Record) fingerprint {
	c := cache.New(fingerprintConfig, pol)
	seq := make([]byte, (len(recs)+7)/8)
	for i, r := range recs {
		if c.Access(r) {
			seq[i/8] |= 1 << (i % 8)
		}
	}
	h := fnv.New64a()
	h.Write(seq)
	return fingerprint{
		Name:       pol.Name(),
		Hits:       c.Stats.Hits,
		Misses:     c.Stats.Misses,
		Evictions:  c.Stats.Evictions,
		Writebacks: c.Stats.Writebacks,
		Sequence:   fmt.Sprintf("%016x", h.Sum64()),
	}
}

// TestPolicyFingerprint pins every policy's name and its hit/miss decisions
// on one mixed stream, so a refactor of any policy's state or code must
// reproduce them bit for bit.
func TestPolicyFingerprint(t *testing.T) {
	recs := fingerprintStream(fingerprintRecords)
	sets, ways := fingerprintConfig.Sets(), fingerprintConfig.Ways
	got := map[string]fingerprint{}
	for key, build := range fingerprintCases() {
		got[key] = runFingerprint(build(sets, ways), recs)
	}
	if *updateFingerprint {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", fingerprintPath, err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", fingerprintPath, err)
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s (regenerate with -update)", key, fingerprintPath)
		} else if g != w {
			t.Errorf("%s: computed %+v, pinned %+v", key, g, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer constructed", key)
		}
	}
}
