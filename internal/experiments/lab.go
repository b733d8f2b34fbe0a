package experiments

import (
	"context"
	"fmt"
	"sync"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/policy"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// Spec names a policy under evaluation. New receives the workload name so
// workload-neutral variants can choose the vectors evolved without that
// workload (paper Section 4.4).
type Spec struct {
	Key   string // stable identifier, used for memoization
	Label string // display label, e.g. "WN-4-DGIPPR"
	New   func(workloadName string, sets, ways int) cache.Policy
}

// phaseResult is the memoized outcome of one (phase, policy) replay.
type phaseResult struct {
	MPKI     float64
	CPI      float64
	Cycles   float64
	Misses   uint64
	Hits     uint64
	Instrs   uint64
	Accesses uint64
}

// Lab owns the streams and memoized results for one scale. It is safe for
// concurrent use: all six memos follow the memo type's rules, so stream
// builds and replays for distinct keys proceed in parallel, concurrent
// requests for the same key wait for its one computation, and a
// computation that panics leaves its key to be recomputed. Every memoized
// replay settles one key: one phase of one spec (phaseRun), or one spec's
// instrumented walk of a workload's phases (telOf). Memos wait on each
// other in one direction only — diffs on tels on streams, and results,
// optimal and sweeps on streams — so no wait cycle can form.
//
// A Lab stores no context. Each cancellable operation takes its context
// as its first argument (Grid, SweepGrid, LatticeReport, DiffAll, Manifest,
// PrefetchStreamsCtx, GAEnvCtx); the figure runners take none and run to
// completion, so a caller that wants to stop between figures checks its
// own context between them.
type Lab struct {
	Scale Scale
	Cfg   cache.Config // the LLC under study

	// Workers bounds the goroutines used by the lab's own fan-outs (Grid,
	// the figure runners and friends). It does not limit how many
	// goroutines may call into the lab concurrently. Values below 1 mean
	// GOMAXPROCS.
	Workers int

	suite []workload.Workload
	// streams maps a workload to its LLC stream per phase. WithSampling
	// views share it by pointer: the capture models only L1 and L2, so it
	// depends on neither the LLC's replacement policy nor its set sampling.
	streams *memo[[]ga.Stream]
	results memo[phaseResult]      // key: policyKey|workload|phase
	optimal memo[phaseResult]      // key: workload|phase
	sweeps  memo[*stackdist.Sweep] // key: latticeKey|workload|phase
	tels    memo[telCapture]       // key: policyKey|workload
	diffs   memo[diffResult]       // key: policyKeyA|policyKeyB|workload

	factorOnce sync.Once // lazily caches Cfg.SampleFactor()
	factor     float64
}

// NewLab returns a lab over the full 29-workload suite at the given scale,
// with the paper's 4 MB 16-way LLC.
func NewLab(s Scale) *Lab {
	return &Lab{
		Scale:   s,
		Cfg:     cache.L3Config,
		Workers: parallel.DefaultWorkers(),
		suite:   workload.Suite(),
		streams: &memo[[]ga.Stream]{},
	}
}

// WithSampling returns a lab view with the given set-sampling shift: same
// scale, suite and workers, sharing this lab's built LLC streams
// (capture is sampling-independent, so rebuilding them would be pure waste)
// but with fresh result memos, since sampled and full-fidelity replays must
// never mix under one key. WithSampling(0) is a full-fidelity view with
// fresh memos over shared streams — the equivalence tests use it to force
// recomputation without re-capturing.
func (l *Lab) WithSampling(shift uint) *Lab {
	n := &Lab{
		Scale:   l.Scale,
		Cfg:     l.Cfg,
		Workers: l.Workers,
		suite:   l.suite,
		streams: l.streams,
	}
	n.Cfg.SampleShift = shift
	return n
}

// sampleFactor returns the lab's miss scale-up factor (Cfg.SampleFactor),
// computed once. Callers must only use it when Cfg.SampleShift != 0, so the
// full-fidelity path never multiplies by a float even when it equals 1.
func (l *Lab) sampleFactor() float64 {
	l.factorOnce.Do(func() { l.factor = l.Cfg.SampleFactor() })
	return l.factor
}

// SetWorkers sets the fan-out width of the lab's own fan-outs (values
// below 1 mean GOMAXPROCS) and returns the lab for chaining.
func (l *Lab) SetWorkers(n int) *Lab {
	l.Workers = parallel.Clamp(n)
	return l
}

// Suite returns the workloads under study.
func (l *Lab) Suite() []workload.Workload { return l.suite }

// phaseSeed derives the deterministic seed of one workload phase.
func phaseSeed(name string, phase int) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return xrand.Mix(h, uint64(phase)+1)
}

// Streams builds (once) and returns the LLC-filtered streams of a workload,
// one per phase, by pushing PhaseRecords references through a fresh
// LRU-managed L1/L2. Builds for different workloads run concurrently; a
// second caller asking for a workload mid-build waits for that build only,
// and memoized lookups never block behind any build.
func (l *Lab) Streams(w workload.Workload) []ga.Stream {
	return l.streams.get(w.Name, func() []ga.Stream { return l.buildStreams(w) })
}

// buildStreams is the expensive L1/L2 capture behind Streams, run exactly
// once per workload.
func (l *Lab) buildStreams(w workload.Workload) []ga.Stream {
	// The capture has no L3: the stream is what misses L1 and L2, so the
	// LLC under study (its policy and its sampling) cannot change it.
	lru := func(cfg cache.Config) *cache.Cache {
		return cache.New(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
	}
	out := make([]ga.Stream, 0, len(w.Phases))
	for pi, ph := range w.Phases {
		src := &workload.Limit{Src: ph.Source(phaseSeed(w.Name, pi)), N: uint64(l.Scale.PhaseRecords)}
		// The LLC stream is bounded by the source's record budget; reserving
		// it up front removes every regrowth copy from the capture loop.
		recs := cache.CaptureLLC(src, lru(cache.L1Config), lru(cache.L2Config), l.Scale.PhaseRecords)
		// The budget is an upper bound. L1/L2 filter out only some
		// references (at default scale 72% of the suite's reach the LLC,
		// 95% on the benchmark's probe workloads), so the copy below runs
		// only for streams well under it: the stream lives for the lab's
		// lifetime, and a large unused tail is not worth pinning.
		if cap(recs) > len(recs)+len(recs)/4 {
			recs = append(make([]trace.Record, 0, len(recs)), recs...)
		}
		out = append(out, ga.Stream{
			Workload: w.Name,
			Weight:   ph.Weight,
			Records:  recs,
		})
	}
	return out
}

func (l *Lab) warm(n int) int { return int(float64(n) * l.Scale.WarmFrac) }

// phaseMPKI converts sampled-or-full miss/instruction counts into the
// phase's MPKI. At full fidelity it is exactly stats.MPKI; under sampling
// the misses describe only the sampled sets and scale up by the measured
// set fraction. The SampleShift guard (rather than factor != 1) keeps the
// full-fidelity path free of any float multiply, preserving bit-exactness
// with the pre-sampling simulator.
func (l *Lab) phaseMPKI(misses, instrs uint64) float64 {
	mpki := stats.MPKI(misses, instrs)
	if l.Cfg.SampleShift != 0 {
		mpki *= l.sampleFactor()
	}
	return mpki
}

// resultOf converts one replay outcome into the memoized phase result.
func (l *Lab) resultOf(res cpu.ReplayResult) phaseResult {
	return phaseResult{
		MPKI:     l.phaseMPKI(res.Misses, res.Instructions),
		CPI:      res.CPI,
		Cycles:   res.Cycles,
		Misses:   res.Misses,
		Hits:     res.Hits,
		Instrs:   res.Instructions,
		Accesses: res.Accesses,
	}
}

// phaseKey is the memoization key of one (policy, workload, phase) cell.
func phaseKey(spec Spec, w workload.Workload, phase int) string {
	return fmt.Sprintf("%s|%s|%d", spec.Key, w.Name, phase)
}

// walk replays one phase of w under a fresh instance of spec and a fresh
// window model (cpu.MultiWindowReplay of one policy); a non-nil sink also
// records the timed window's events. Every memoized replay, terminal or
// instrumented, is made of walks, so a value does not depend on which
// schedule computed it.
func (l *Lab) walk(spec Spec, w workload.Workload, phase int, sink *telemetry.Sink) cpu.ReplayResult {
	recs := l.Streams(w)[phase].Records
	pol := spec.New(w.Name, l.Cfg.Sets(), l.Cfg.Ways)
	return cpu.MultiWindowReplay(recs, l.Cfg, []cache.Policy{pol}, l.warm(len(recs)),
		[]*cpu.WindowModel{cpu.DefaultWindowModel()}, []*telemetry.Sink{sink})[0]
}

// phaseRun returns one (spec, workload, phase) result, replaying it once.
func (l *Lab) phaseRun(spec Spec, w workload.Workload, phase int) phaseResult {
	return l.results.get(phaseKey(spec, w, phase), func() phaseResult {
		return l.resultOf(l.walk(spec, w, phase, nil))
	})
}

// optimalRun computes Belady MIN for one phase, memoized like phaseRun.
func (l *Lab) optimalRun(w workload.Workload, phase int) phaseResult {
	return l.optimal.get(fmt.Sprintf("%s|%d", w.Name, phase), func() phaseResult {
		st := l.Streams(w)[phase]
		rs := policy.Optimal(st.Records, l.Cfg, l.warm(len(st.Records)))
		return phaseResult{
			MPKI:     l.phaseMPKI(rs.Misses, rs.Instructions),
			Misses:   rs.Misses,
			Instrs:   rs.Instructions,
			Accesses: rs.Accesses,
		}
	})
}

// weighted combines per-phase values with the workload's phase weights.
func weighted(w workload.Workload, f func(phase int) float64) float64 {
	vals := make([]float64, len(w.Phases))
	wts := make([]float64, len(w.Phases))
	for i, p := range w.Phases {
		vals[i] = f(i)
		wts[i] = p.Weight
	}
	return stats.WeightedMean(vals, wts)
}

// MPKI returns the weighted misses-per-kilo-instruction of a policy on a
// workload.
func (l *Lab) MPKI(spec Spec, w workload.Workload) float64 {
	return weighted(w, func(p int) float64 { return l.phaseRun(spec, w, p).MPKI })
}

// CPI returns the weighted CPI of a policy on a workload under the window
// model.
func (l *Lab) CPI(spec Spec, w workload.Workload) float64 {
	return weighted(w, func(p int) float64 { return l.phaseRun(spec, w, p).CPI })
}

// Speedup returns the workload's speedup of spec over the baseline spec
// (ratio of weighted CPIs).
func (l *Lab) Speedup(spec, baseline Spec, w workload.Workload) float64 {
	return stats.Speedup(l.CPI(baseline, w), l.CPI(spec, w))
}

// NormalizedMPKI returns spec's MPKI normalized to the baseline's. When a
// workload has essentially no LLC misses under the baseline (below one miss
// per million instructions), it returns exactly 1: such workloads are
// insensitive to the LLC policy and would otherwise produce wild ratios
// from noise.
func (l *Lab) NormalizedMPKI(spec, baseline Spec, w workload.Workload) float64 {
	base := l.MPKI(baseline, w)
	if base < 1e-3 {
		return 1
	}
	return l.MPKI(spec, w) / base
}

// OptimalMPKI returns Belady MIN's weighted MPKI on a workload.
func (l *Lab) OptimalMPKI(w workload.Workload) float64 {
	return weighted(w, func(p int) float64 { return l.optimalRun(w, p).MPKI })
}

// OptimalNormalizedMPKI returns MIN's MPKI normalized to the baseline's,
// with the same insensitive-workload guard as NormalizedMPKI.
func (l *Lab) OptimalNormalizedMPKI(baseline Spec, w workload.Workload) float64 {
	base := l.MPKI(baseline, w)
	if base < 1e-3 {
		return 1
	}
	return l.OptimalMPKI(w) / base
}

// GAEnvCtx builds a fitness environment searching the GIPPR family
// (tree-PLRU IPVs) over reduced-size fitness streams, truncated copies of
// the lab streams (the paper's fitness traces are likewise cheaper than its
// evaluation runs). Building the lab streams is the expensive part; on
// cancellation it returns (nil, ctx.Err()) once in-flight builds have
// drained.
func (l *Lab) GAEnvCtx(ctx context.Context) (*ga.Env, error) {
	if err := l.PrefetchStreamsCtx(ctx, nil); err != nil {
		return nil, err
	}
	var streams []ga.Stream
	for _, w := range l.suite {
		for _, st := range l.Streams(w) {
			recs := st.Records
			// Truncate proportionally to the evolve/evaluate record ratio.
			maxLen := len(recs) * l.Scale.EvolveRecords / l.Scale.PhaseRecords
			if maxLen < len(recs) {
				recs = recs[:maxLen]
			}
			streams = append(streams, ga.Stream{Workload: st.Workload, Weight: st.Weight, Records: recs})
		}
	}
	return ga.NewEnv(l.Cfg, cpu.DefaultLinearModel(), l.Scale.WarmFrac, streams,
		func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) },
		func(sets, ways int, v ipv.Vector) cache.Policy { return policy.NewGIPPR(sets, ways, v) },
	).SetWorkers(l.Workers), nil
}

// LLCStreamStats summarizes the captured streams (for reports and tests).
type LLCStreamStats struct {
	Workload string
	Phases   int
	Records  int
	Instrs   uint64
}

// StreamStats returns per-workload stream summaries.
func (l *Lab) StreamStats() []LLCStreamStats {
	l.prefetchStreams(nil)
	out := make([]LLCStreamStats, 0, len(l.suite))
	for _, w := range l.suite {
		s := LLCStreamStats{Workload: w.Name, Phases: len(w.Phases)}
		for _, st := range l.Streams(w) {
			s.Records += len(st.Records)
			s.Instrs += trace.Instructions(st.Records)
		}
		out = append(out, s)
	}
	return out
}
