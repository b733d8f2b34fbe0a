package experiments

import (
	"context"

	"gippr/internal/explain"
	"gippr/internal/parallel"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

// telCapture is the memoized instrumented run of one (policy, workload):
// per-phase terminal counts with their reuse histograms, the merged
// event-level report, and the weighted MPKI computed with the exact same
// expression as Lab.MPKI — an attached sink changes no count, so the
// instrumented counts are bit-identical to the memoized terminal ones and
// this MPKI matches the golden path bit for bit.
type telCapture struct {
	phases []explain.PhaseStats
	merged telemetry.Report
	mpki   float64
}

// diffResult is one memoized Diff outcome.
type diffResult struct {
	expl *explain.Explanation
	err  error
}

func telKey(spec Spec, w workload.Workload) string { return spec.Key + "|" + w.Name }

// telOf returns the instrumented capture of one (spec, workload): each
// phase is one walk under its own telemetry sink, and the sinks merge in
// phase order.
func (l *Lab) telOf(spec Spec, w workload.Workload) telCapture {
	return l.tels.get(telKey(spec, w), func() telCapture {
		var c telCapture
		merged := &telemetry.Sink{}
		for pi, ph := range w.Phases {
			sink := &telemetry.Sink{}
			r := l.walk(spec, w, pi, sink)
			c.phases = append(c.phases, explain.PhaseStats{
				Weight:       ph.Weight,
				Misses:       r.Misses,
				Hits:         r.Hits,
				Accesses:     r.Accesses,
				Instructions: r.Instructions,
				HitReuse:     sink.HitReuse.Snapshot(),
			})
			merged.Merge(sink)
		}
		c.merged = merged.Report()
		c.mpki = weighted(w, func(p int) float64 {
			return l.phaseMPKI(c.phases[p].Misses, c.phases[p].Instructions)
		})
		return c
	})
}

// side assembles one explain input from a settled capture.
func (l *Lab) side(spec Spec, c telCapture) explain.Side {
	s := explain.Side{
		Policy:    spec.Label,
		MPKI:      c.mpki,
		Telemetry: c.merged,
		Phases:    c.phases,
	}
	for _, p := range c.phases {
		s.Misses += p.Misses
		s.Hits += p.Hits
		s.Accesses += p.Accesses
		s.Instructions += p.Instructions
	}
	if l.Cfg.SampleShift != 0 {
		s.MPKIScale = l.sampleFactor()
	}
	return s
}

// Diff explains spec b relative to spec a on one workload: each side is
// its spec's memoized instrumented capture (telOf), and explain.Diff
// decomposes the pair. Results are memoized per (a, b, workload) and
// captures are shared across diffs — Diff(A, B, w) then Diff(A, C, w)
// replays A once. The headline MPKIs equal Lab.MPKI bit for bit.
func (l *Lab) Diff(a, b Spec, w workload.Workload) (*explain.Explanation, error) {
	d := l.diffs.get(a.Key+"|"+b.Key+"|"+w.Name, func() diffResult {
		e, err := explain.Diff(w.Name, l.side(a, l.telOf(a, w)), l.side(b, l.telOf(b, w)))
		return diffResult{e, err}
	})
	return d.expl, d.err
}

// DiffAll explains b relative to a on every given workload, fanning the
// per-workload captures across the lab's workers. On cancellation the
// slice holds the explanations settled so far (nil for the rest) and
// ctx's error; otherwise the first per-workload failure is returned with
// every non-failed entry populated.
func (l *Lab) DiffAll(ctx context.Context, a, b Spec, wls []workload.Workload) ([]*explain.Explanation, error) {
	out := make([]*explain.Explanation, len(wls))
	errs := make([]error, len(wls))
	err := parallel.ForCtx(ctx, l.Workers, len(wls), func(i int) {
		out[i], errs[i] = l.Diff(a, b, wls[i])
	})
	if err != nil {
		return out, err
	}
	for i, e := range errs {
		if e != nil {
			out[i] = nil
			return out, e
		}
	}
	return out, nil
}
