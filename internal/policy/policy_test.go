package policy

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// test geometry: 16 sets x 16 ways of 64-byte blocks.
func testConfig() cache.Config {
	return cache.Config{Name: "t", SizeBytes: 16 * 16 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
}

// small geometry: 4 sets x 4 ways.
func smallConfig() cache.Config {
	return cache.Config{Name: "s", SizeBytes: 4 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 1}
}

// run pushes a block-number stream through a cache and returns its stats.
func run(cfg cache.Config, pol cache.Policy, blocks []uint64) cache.Stats {
	c := cache.New(cfg, pol)
	for _, b := range blocks {
		c.Access(trace.Record{Gap: 1, Addr: b * 64, PC: 0x400000 + (b%7)*4})
	}
	return c.Stats
}

// cyclic generates n accesses sweeping 0..span-1 repeatedly.
func cyclic(span, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i % span)
	}
	return out
}

// uniformBlocks generates n uniformly random block numbers below span.
func uniformBlocks(span, n int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64n(uint64(span))
	}
	return out
}

// scanWithQuickReuse emits new blocks, each re-referenced once after `delay`
// further new blocks (the dealII-style pattern).
func scanWithQuickReuse(n, delay int) []uint64 {
	var out []uint64
	next := uint64(0)
	for len(out) < n {
		out = append(out, next)
		if next >= uint64(delay) {
			out = append(out, next-uint64(delay))
		}
		next++
	}
	return out[:n]
}

// mixStreams interleaves a hot loop with a one-shot stream. Hot blocks are
// touched twice in quick succession so reuse-aware policies (SRRIP-class,
// PDP) can establish protection before streaming interference evicts them —
// real hot data behaves this way; a uniformly spaced single touch would deny
// every policy the chance to observe reuse.
func mixStreams(hotSpan, n int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	var streamNext uint64 = 1 << 30
	out := make([]uint64, 0, n)
	hot := 0
	for len(out) < n {
		if rng.Bool(0.5) {
			b := uint64(hot % hotSpan)
			out = append(out, b, b)
			hot++
		} else {
			out = append(out, streamNext)
			streamNext++
		}
	}
	return out[:n]
}

func TestRegistryConstructsAndRuns(t *testing.T) {
	cfg := testConfig()
	stream := uniformBlocks(256, 4000, 99)
	for _, name := range Names() {
		f, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pol := f.New(cfg.Sets(), cfg.Ways)
		if pol.Name() == "" {
			t.Fatalf("%s: empty policy name", name)
		}
		st := run(cfg, pol, stream)
		if st.Accesses != 4000 {
			t.Fatalf("%s: accesses = %d", name, st.Accesses)
		}
		if st.Misses == 0 {
			t.Fatalf("%s: zero misses on a thrashing stream", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-policy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRegistryOverheadImplemented(t *testing.T) {
	cfg := testConfig()
	for _, name := range Names() {
		f, _ := Lookup(name)
		pol := f.New(cfg.Sets(), cfg.Ways)
		oh, ok := pol.(Overheader)
		if !ok {
			t.Fatalf("%s does not implement Overheader", name)
		}
		perSet, global := oh.OverheadBits()
		if perSet < 0 || global < 0 {
			t.Fatalf("%s reports negative overhead", name)
		}
	}
}

func TestOverheadNumbers(t *testing.T) {
	cfg := cache.L3Config // 4096 sets, 16 ways
	rows, err := OverheadTable(cfg, []string{"lru", "plru", "gippr", "2-dgippr", "4-dgippr", "drrip", "pdp"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OverheadRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// Paper Section 3.6: LRU 4 bits/block (32KB), GIPPR < 0.94 bits/block
	// (7KB), DRRIP 2 bits/block (16KB), 4-DGIPPR adds only 33 global bits.
	if got := byName["LRU"].BitsPerBlock; got != 4 {
		t.Fatalf("LRU bits/block = %v", got)
	}
	if got := byName["GIPPR"].BitsPerBlock; got >= 0.94 {
		t.Fatalf("GIPPR bits/block = %v, want < 0.94", got)
	}
	if got := byName["PLRU"].BitsPerBlock; got != byName["GIPPR"].BitsPerBlock {
		t.Fatal("GIPPR must cost exactly PLRU")
	}
	if got := byName["DRRIP"].PerSetBits; got != 32 {
		t.Fatalf("DRRIP bits/set = %v", got)
	}
	if got := byName["4-DGIPPR"].GlobalBits; got != 33 {
		t.Fatalf("4-DGIPPR global bits = %v", got)
	}
	if got := byName["2-DGIPPR"].GlobalBits; got != 11 {
		t.Fatalf("2-DGIPPR global bits = %v", got)
	}
	// Total KB for the 4MB cache: LRU 32KB, GIPPR ~7.5KB, DRRIP ~16KB.
	if kb := byName["LRU"].TotalKB; kb != 32 {
		t.Fatalf("LRU total KB = %v", kb)
	}
	if kb := byName["GIPPR"].TotalKB; kb < 7 || kb > 8 {
		t.Fatalf("GIPPR total KB = %v", kb)
	}
}

func TestFormatOverheadTable(t *testing.T) {
	rows, err := OverheadTable(cache.L3Config, []string{"lru", "pdp"})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatOverheadTable(cache.L3Config, rows)
	if len(s) == 0 {
		t.Fatal("empty table")
	}
	for _, want := range []string{"LRU", "PDP", "microcontroller"} {
		if !containsStr(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPaperVectorForScaling(t *testing.T) {
	v16 := ipv.PaperWIGIPPR
	if got := v16.ScaleTo(16); !got.Equal(v16) {
		t.Fatal("16-way vector modified")
	}
	for _, k := range []int{4, 8, 32} {
		scaled := v16.ScaleTo(k)
		if scaled.K() != k {
			t.Fatalf("scaled to k=%d got %d", k, scaled.K())
		}
		if err := scaled.Validate(); err != nil {
			t.Fatalf("scaled vector invalid: %v", err)
		}
	}
}

func TestBitsPerBlock(t *testing.T) {
	// 15 bits/set, no global, 4096 sets, 16 ways -> 0.9375.
	if got := BitsPerBlock(15, 0, 4096, 16); got != 0.9375 {
		t.Fatalf("BitsPerBlock = %v", got)
	}
}

func TestValidateGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	validateGeometry(0, 16)
}
