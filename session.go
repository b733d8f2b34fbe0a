package gippr

import (
	"fmt"
	"runtime"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/explain"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/policy"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

// Typed error sentinels, re-exported so facade users can classify failures
// with errors.Is without importing internal packages. The cmd tools map
// these to the usage exit code and gippr-serve maps them to 400 responses.
var (
	// ErrBadGeometry marks an invalid cache geometry or set-sampling shift.
	ErrBadGeometry = cache.ErrBadGeometry
	// ErrUnknownPolicy marks a policy name missing from the registry.
	ErrUnknownPolicy = policy.ErrUnknownPolicy
	// ErrUnknownWorkload marks a workload name missing from the suite.
	ErrUnknownWorkload = workload.ErrUnknownWorkload
	// ErrBadVector marks a malformed or out-of-range IPV.
	ErrBadVector = ipv.ErrBadVector
	// ErrExplainMismatch marks a Session.Explain whose two sides did not
	// replay the same stream over the same window.
	ErrExplainMismatch = explain.ErrMismatch
	// ErrExplainInconsistent marks a Session.Explain side whose telemetry
	// disagrees with its replay statistics.
	ErrExplainInconsistent = explain.ErrInconsistent
)

// TelemetrySink collects cache events (hits, misses, insertions, promotion
// transitions) during instrumented replays.
type TelemetrySink = telemetry.Sink

// Session is the configured entry point to the simulator: an LLC geometry
// plus cross-cutting options (telemetry, set sampling, worker count) that
// every subsequent construction should respect. Build one with New.
type Session struct {
	cfg     CacheConfig
	sink    *TelemetrySink
	workers int

	sampleShift int
	sampleSet   bool
}

// Option configures a Session. Options are applied in order by New; the
// resulting configuration is validated once, after all of them.
type Option func(*Session)

// WithTelemetry attaches a telemetry sink: replays run through the Session
// record per-event counters and position histograms into it.
func WithTelemetry(sink *TelemetrySink) Option {
	return func(s *Session) { s.sink = sink }
}

// WithSampling enables set sampling: only a deterministic 1-in-2^shift
// fraction of LLC sets is simulated and miss counts are scaled back up.
// New rejects negative shifts and shifts that leave fewer than one set.
func WithSampling(shift int) Option {
	return func(s *Session) { s.sampleShift, s.sampleSet = shift, true }
}

// WithWorkers sets the fan-out width for the Session's parallel helpers.
// Values < 1 select the host's default (GOMAXPROCS, clamped).
func WithWorkers(n int) Option {
	return func(s *Session) { s.workers = n }
}

// New builds a Session around an LLC geometry. With no options it behaves
// like the package-level constructors: full-fidelity simulation, no
// telemetry, default parallelism.
//
//	sess, err := gippr.New(gippr.LLCConfig(),
//	    gippr.WithTelemetry(sink),
//	    gippr.WithSampling(4),
//	    gippr.WithWorkers(8))
func New(cfg CacheConfig, opts ...Option) (*Session, error) {
	s := &Session{cfg: cfg}
	for _, opt := range opts {
		opt(s)
	}
	if s.sampleSet {
		shift, err := s.cfg.CheckSampleShift(s.sampleShift)
		if err != nil {
			return nil, err
		}
		s.cfg.SampleShift = shift
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if s.workers < 1 {
		s.workers = parallel.DefaultWorkers()
	}
	return s, nil
}

// Config returns the Session's validated LLC geometry (including the
// sampling shift installed by WithSampling).
func (s *Session) Config() CacheConfig { return s.cfg }

// Workers returns the Session's parallel fan-out width.
func (s *Session) Workers() int { return s.workers }

// Telemetry returns the attached sink, or nil.
func (s *Session) Telemetry() *TelemetrySink { return s.sink }

// Policy instantiates a registry policy (the names gippr-sim and
// gippr-serve accept: "lru", "plru", "drrip", "gippr", "4-dgippr", ...)
// for the Session's geometry. Unknown names wrap ErrUnknownPolicy. Two
// policy families bound the associativity: the tree-PseudoLRU family
// ("plru", "gippr", "2-dgippr", "4-dgippr") needs a power of two in 2..64,
// and the exact-recency family ("lru", "lip", "bip", "dip", "giplr",
// "mslru") 2..127 ways. Outside its domain a policy's error wraps
// ErrBadGeometry and names the policy and the associativity.
func (s *Session) Policy(name string) (Policy, error) {
	_, p, err := s.newPolicy(name)
	return p, err
}

// newPolicy builds a registry policy at the Session's geometry. Policy
// constructors panic on an associativity outside their domain; that panic
// comes back as an error wrapping ErrBadGeometry. Runtime errors are bugs,
// not geometry, and keep panicking.
func (s *Session) newPolicy(name string) (f policy.Factory, p Policy, err error) {
	if f, err = policy.Lookup(name); err != nil {
		return f, nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			if _, bug := r.(runtime.Error); bug {
				panic(r)
			}
			err = fmt.Errorf("%w: policy %q at %d ways: %v", ErrBadGeometry, name, s.cfg.Ways, r)
		}
	}()
	return f, f.New(s.cfg.Sets(), s.cfg.Ways), nil
}

// Hierarchy builds the paper's three-level hierarchy with LRU-managed
// L1/L2 and the given policy at a last level using the Session's geometry.
func (s *Session) Hierarchy(llc Policy) *Hierarchy {
	return cache.NewHierarchy(
		cache.New(cache.L1Config, policy.NewTrueLRU(cache.L1Config.Sets(), cache.L1Config.Ways)),
		cache.New(cache.L2Config, policy.NewTrueLRU(cache.L2Config.Sets(), cache.L2Config.Ways)),
		cache.New(s.cfg, llc),
	)
}

// Replay replays an LLC access stream into a standalone cache with the
// Session's geometry (honouring WithSampling) and returns the measurement
// window's miss statistics. The warm argument follows the package-wide
// warm-up contract (see the package comment): the first warm records only
// populate cache state and count toward nothing, and a warm beyond the
// stream's length clamps to it. A sink attached via WithTelemetry records
// the measurement window's events — it is reset at the warm boundary, so
// its counts describe exactly the window ReplayStats describes.
func (s *Session) Replay(stream []Record, pol Policy, warm int) ReplayStats {
	return cache.ReplayStreamTel(stream, s.cfg, pol, warm, s.sink)
}

// Optimal replays an LLC access stream under Belady's MIN (with bypass)
// at the Session's geometry and returns its miss statistics.
func (s *Session) Optimal(stream []Record, warm int) ReplayStats {
	return policy.Optimal(stream, s.cfg, warm)
}

// SweepOptions configures a one-pass all-geometry sweep (see Session.Sweep).
type SweepOptions = stackdist.Options

// SweepGeometry names one (sets, ways) cache shape for the sweep's
// tree-PLRU list.
type SweepGeometry = stackdist.Geometry

// SweepResult is a one-pass sweep's outcome: exact hit/miss/MPKI for every
// lattice point and tree-PLRU geometry, in lattice order.
type SweepResult = stackdist.Sweep

// Sweep scores the whole cache design space in one walk of the stream: the
// exact Mattson stack-distance engine covers every LRU geometry in the
// lattice (each power-of-two set count in [MinSets, MaxSets] crossed with
// associativities 1..MaxWays), and each opts.PLRU tree-PLRU geometry is
// co-simulated in the same pass. Zero-valued option fields default to the
// Session's own configuration per the package-wide zero-value contract
// (see the package comment): BlockBytes, MaxWays and the set-count bounds
// come from the configured LLC, and opts.Warm follows the shared warm-up
// contract. Impossible sweeps (non-power-of-two shapes, tree-PLRU ways
// beyond a PseudoLRU set's capacity) fail up front wrapping ErrBadGeometry
// — never mid-replay.
func (s *Session) Sweep(stream []Record, opts SweepOptions) (*SweepResult, error) {
	if opts.BlockBytes == 0 {
		opts.BlockBytes = s.cfg.BlockBytes
	}
	if opts.MinSets == 0 {
		opts.MinSets = s.cfg.Sets()
	}
	if opts.MaxSets == 0 {
		opts.MaxSets = s.cfg.Sets()
	}
	if opts.MaxWays == 0 {
		opts.MaxWays = s.cfg.Ways
	}
	return stackdist.Run(stream, opts)
}

// ExplainOptions configures Session.Explain. The zero value measures the
// whole stream and labels the explanation "stream".
type ExplainOptions struct {
	// Warm is the number of leading stream records used only to warm both
	// caches, per the package-wide warm-up contract (see the package
	// comment).
	Warm int
	// Workload labels the resulting explanation (its JSON "workload"
	// field); empty reads as "stream".
	Workload string
}

// Explanation is the versioned policy-diff "why" report: an exact
// per-reuse-interval decomposition of one policy's miss delta over another
// on the same stream, plus the insertion/promotion divergence behind it
// and a deterministic prose rendering. gippr-report's diff section and
// gippr-serve's /v1/explain emit this same document.
type Explanation = explain.Explanation

// Explain replays one LLC access stream under two registry policies (the
// same names Session.Policy accepts) at the Session's geometry and
// explains polB's misses relative to polA's. Both replays honour
// WithSampling and the shared warm-up contract; each side records into a
// private telemetry sink, so a sink attached via WithTelemetry is left
// untouched. Unknown names wrap ErrUnknownPolicy and policies outside
// their associativity domain ErrBadGeometry, as in Session.Policy; sides
// whose miss delta cannot be decomposed exactly are refused with
// ErrExplainMismatch or ErrExplainInconsistent rather than approximated.
func (s *Session) Explain(stream []Record, polA, polB string, opts ExplainOptions) (*Explanation, error) {
	label := opts.Workload
	if label == "" {
		label = "stream"
	}
	a, err := s.explainSide(stream, polA, opts.Warm)
	if err != nil {
		return nil, err
	}
	b, err := s.explainSide(stream, polB, opts.Warm)
	if err != nil {
		return nil, err
	}
	return explain.Diff(label, a, b)
}

// explainSide builds one diff input from a standalone instrumented replay
// with a private sink. MPKI uses the same expression as the experiment
// harness (stats.MPKI, scaled up by the sampling factor only when sampling
// is on), so facade figures match report figures for the same run.
func (s *Session) explainSide(stream []Record, name string, warm int) (explain.Side, error) {
	f, pol, err := s.newPolicy(name)
	if err != nil {
		return explain.Side{}, err
	}
	var sink TelemetrySink
	rs := cache.ReplayStreamTel(stream, s.cfg, pol, warm, &sink)
	side := explain.Side{
		Policy:       f.Name,
		MPKI:         stats.MPKI(rs.Misses, rs.Instructions),
		Misses:       rs.Misses,
		Hits:         rs.Hits,
		Accesses:     rs.Accesses,
		Instructions: rs.Instructions,
		Telemetry:    sink.Report(),
	}
	if s.cfg.SampleShift != 0 {
		side.MPKIScale = s.cfg.SampleFactor()
		side.MPKI *= side.MPKIScale
	}
	return side, nil
}

// EvolveEnv builds a GIPPR fitness environment over LLC-filtered streams at
// the Session's geometry: estimated speedup over true LRU under the linear
// CPI model, with warmFrac of each stream used for cache warm-up. A
// warmFrac outside [0, 1), NaN included, returns an error wrapping
// ErrBadGeometry, as Sweep does for a negative warm-up.
func (s *Session) EvolveEnv(warmFrac float64, streams []EvolveStream) (*EvolveEnv, error) {
	if !(warmFrac >= 0 && warmFrac < 1) {
		return nil, fmt.Errorf("%w: warm-up fraction %v outside [0, 1)", ErrBadGeometry, warmFrac)
	}
	return ga.NewEnv(s.cfg, cpu.DefaultLinearModel(), warmFrac, streams,
		func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) },
		func(sets, ways int, v ipv.Vector) cache.Policy { return policy.NewGIPPR(sets, ways, v) },
	), nil
}
