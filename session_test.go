package gippr

import (
	"errors"
	"testing"

	"gippr/internal/xrand"
)

// sessionStream builds a small deterministic LLC-like access stream.
func sessionStream(n int) []Record {
	out := make([]Record, n)
	r := xrand.New(42)
	for i := range out {
		out[i] = Record{Addr: (r.Uint64() % 4096) << 6, PC: uint64(i % 64), Gap: 1 + uint32(i%3)}
	}
	return out
}

func TestNewSessionDefaults(t *testing.T) {
	s, err := New(LLCConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Config().SampleShift != 0 {
		t.Errorf("default SampleShift = %d, want 0", s.Config().SampleShift)
	}
	if s.Workers() < 1 {
		t.Errorf("Workers() = %d, want >= 1", s.Workers())
	}
	if s.Telemetry() != nil {
		t.Error("default session has a telemetry sink")
	}
}

func TestNewSessionOptions(t *testing.T) {
	sink := &TelemetrySink{}
	s, err := New(LLCConfig(), WithTelemetry(sink), WithSampling(4), WithWorkers(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Config().SampleShift != 4 {
		t.Errorf("SampleShift = %d, want 4", s.Config().SampleShift)
	}
	if s.Workers() != 3 {
		t.Errorf("Workers = %d, want 3", s.Workers())
	}
	if s.Telemetry() != sink {
		t.Error("Telemetry() did not return the installed sink")
	}
}

// Bad sampling shifts surface the typed sentinel, never a silent clamp.
func TestNewSessionRejectsBadSampling(t *testing.T) {
	for _, shift := range []int{-1, 13, 64} {
		if _, err := New(LLCConfig(), WithSampling(shift)); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("WithSampling(%d): err = %v, want ErrBadGeometry", shift, err)
		}
	}
	// The largest legal shift still leaves one sampled set.
	if _, err := New(LLCConfig(), WithSampling(12)); err != nil {
		t.Errorf("WithSampling(12) on 4096 sets: %v", err)
	}
}

func TestNewSessionRejectsBadGeometry(t *testing.T) {
	cfg := LLCConfig()
	cfg.BlockBytes = 48 // not a power of two
	if _, err := New(cfg); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("bad geometry: err = %v, want ErrBadGeometry", err)
	}
}

func TestSessionPolicyLookup(t *testing.T) {
	s, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := s.Policy("plru")
	if err != nil || pol == nil {
		t.Fatalf("Policy(plru): %v", err)
	}
	if _, err := s.Policy("no-such"); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("Policy(no-such): err = %v, want ErrUnknownPolicy", err)
	}
}

// A Session replay with no options must agree exactly with the legacy
// package-level ReplayStream — the compatibility contract of the redesign.
func TestSessionReplayMatchesLegacy(t *testing.T) {
	stream := sessionStream(20_000)
	s, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := s.Replay(stream, NewPLRU(s.Config().Sets(), s.Config().Ways), 5_000)
	want := ReplayStream(stream, LLCConfig(), NewPLRU(LLCConfig().Sets(), LLCConfig().Ways), 5_000)
	if got != want {
		t.Errorf("Session.Replay = %+v, legacy ReplayStream = %+v", got, want)
	}
}

// WithSampling changes the replayed population; WithTelemetry fills the
// sink. Both must flow through Session.Replay.
func TestSessionReplayHonoursOptions(t *testing.T) {
	stream := sessionStream(20_000)
	sink := &TelemetrySink{}
	s, err := New(LLCConfig(), WithSampling(2), WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	sampled := s.Replay(stream, NewPLRU(s.Config().Sets(), s.Config().Ways), 5_000)
	full := ReplayStream(stream, LLCConfig(), NewPLRU(LLCConfig().Sets(), LLCConfig().Ways), 5_000)
	if sampled.Accesses >= full.Accesses {
		t.Errorf("sampled accesses %d not below full %d", sampled.Accesses, full.Accesses)
	}
	if sink.Accesses() == 0 {
		t.Error("telemetry sink saw no events")
	}
}

func TestSessionHierarchyAndEvolveEnv(t *testing.T) {
	s, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Hierarchy(NewPLRU(s.Config().Sets(), s.Config().Ways))
	for _, r := range sessionStream(2_000) {
		h.Access(r)
	}
	if h.L1.Stats.Accesses == 0 || h.L3.Stats.Accesses == 0 {
		t.Error("session hierarchy not wired through L1..L3")
	}

	env := s.EvolveEnv(1.0/3, []EvolveStream{{Workload: "t", Weight: 1, Records: sessionStream(4_000)}})
	if env == nil {
		t.Fatal("EvolveEnv returned nil")
	}
	if f := env.Fitness(LRUVector(s.Config().Ways)); f <= 0 {
		t.Errorf("LRU-vector fitness = %v, want > 0 (speedup ratio)", f)
	}
}

// Session.Sweep fills zero-valued geometry fields from the Session's own
// LLC, its LRU lattice point at that geometry agrees exactly with a plain
// true-LRU replay, and impossible sweeps fail up front with the typed
// sentinel.
func TestSessionSweep(t *testing.T) {
	stream := sessionStream(20_000)
	s, err := New(LLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	warm := 5_000
	sw, err := s.Sweep(stream, SweepOptions{Warm: warm})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	cfg := s.Config()
	if sw.BlockBytes != cfg.BlockBytes {
		t.Errorf("sweep block size %d, want the session's %d", sw.BlockBytes, cfg.BlockBytes)
	}
	// Defaults: the session's own set count crossed with ways 1..cfg.Ways.
	if want := cfg.Ways; len(sw.Results) != want {
		t.Fatalf("sweep produced %d results, want %d", len(sw.Results), want)
	}
	res, ok := sw.Find("lru", cfg.Sets(), cfg.Ways)
	if !ok {
		t.Fatalf("sweep has no lru result at the session geometry %dx%d", cfg.Sets(), cfg.Ways)
	}
	rs := s.Replay(stream, NewLRU(cfg.Sets(), cfg.Ways), warm)
	if res.Hits != rs.Hits || res.Misses != rs.Misses || res.Accesses != rs.Accesses {
		t.Errorf("one-pass lru cell %+v disagrees with direct replay %+v", res, rs)
	}

	if _, err := s.Sweep(stream, SweepOptions{MinSets: 96, MaxSets: 128, MaxWays: 4}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("non-power-of-two sweep: err = %v, want ErrBadGeometry", err)
	}
	if _, err := s.Sweep(stream, SweepOptions{PLRU: []SweepGeometry{{Sets: cfg.Sets(), Ways: 3}}}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("bad tree-PLRU geometry: err = %v, want ErrBadGeometry", err)
	}
}

// Session.Explain: the facade path of the explain engine. A small-cache
// diff must decompose exactly, honour the warm-up contract, leave the
// session's own sink untouched, and surface typed errors.
func TestSessionExplain(t *testing.T) {
	cfg := CacheConfig{Name: "t", SizeBytes: 64 * 64, Ways: 16, BlockBytes: 64, HitLatency: 1}
	sink := &TelemetrySink{}
	s, err := New(cfg, WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	stream := sessionStream(30_000)
	warm := 10_000

	e, err := s.Explain(stream, "lru", "lip", ExplainOptions{Warm: warm, Workload: "synthetic"})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if e.Workload != "synthetic" || e.PolicyA != "LRU" || e.PolicyB != "LIP" {
		t.Errorf("labels = %q %q %q", e.Workload, e.PolicyA, e.PolicyB)
	}
	var sum int64
	for _, b := range e.Reuse {
		sum += b.SavedMisses
	}
	if sum != e.MissesSaved {
		t.Errorf("decomposition sums to %d, miss delta is %d", sum, e.MissesSaved)
	}
	// The headline counts are the same replay Session.Replay performs.
	lru, err := s.Policy("lru")
	if err != nil {
		t.Fatal(err)
	}
	rs := s.Replay(stream, lru, warm)
	if e.MissesA != rs.Misses || e.Accesses != rs.Accesses || e.Instructions != rs.Instructions {
		t.Errorf("side A (%d/%d/%d) disagrees with Session.Replay (%d/%d/%d)",
			e.MissesA, e.Accesses, e.Instructions, rs.Misses, rs.Accesses, rs.Instructions)
	}

	// The session's attached sink must only have seen the Replay above, not
	// the Explain's two private replays.
	if got, want := sink.Accesses(), rs.Accesses; got != want {
		t.Errorf("session sink saw %d accesses, want %d (Explain must use private sinks)", got, want)
	}

	if _, err := s.Explain(stream, "lru", "nope", ExplainOptions{}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown policy error = %v, want ErrUnknownPolicy", err)
	}

	// The empty label defaults to "stream".
	e2, err := s.Explain(stream[:2_000], "lru", "plru", ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Workload != "stream" {
		t.Errorf("default workload label = %q, want \"stream\"", e2.Workload)
	}
}

// Under WithSampling the decomposition identity still holds on the sampled
// population, and the MPKI scale is recorded on the explanation's sides.
func TestSessionExplainSampled(t *testing.T) {
	cfg := CacheConfig{Name: "t", SizeBytes: 256 * 64, Ways: 4, BlockBytes: 64, HitLatency: 1}
	s, err := New(cfg, WithSampling(2))
	if err != nil {
		t.Fatal(err)
	}
	stream := sessionStream(30_000)
	e, err := s.Explain(stream, "lru", "lip", ExplainOptions{Warm: 5_000})
	if err != nil {
		t.Fatalf("Explain under sampling: %v", err)
	}
	var sum int64
	for _, b := range e.Reuse {
		sum += b.SavedMisses
	}
	if sum != e.MissesSaved {
		t.Errorf("sampled decomposition sums to %d, miss delta is %d", sum, e.MissesSaved)
	}
}
