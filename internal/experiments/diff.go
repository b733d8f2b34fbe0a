package experiments

import (
	"context"

	"gippr/internal/cpu"
	"gippr/internal/explain"
	"gippr/internal/parallel"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

// telCapture is the memoized instrumented run of one (policy, workload):
// per-phase terminal counts with their reuse histograms, the merged
// event-level report, and the weighted MPKI computed with the exact same
// expression as Lab.MPKI — the kernel's per-model equivalence guarantee
// makes the instrumented counts bit-identical to the memoized terminal
// ones, so this MPKI matches the golden path bit for bit.
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

// capture walks each phase of w once under every given spec, each with a
// fresh policy, window model and private telemetry sink
// (cpu.MultiWindowReplay), and returns their instrumented captures in spec
// order. Like replay, each capture is bit-identical to a standalone
// instrumented replay of its spec, so a value does not depend on which
// batch computed it.
func (l *Lab) capture(specs []Spec, w workload.Workload) []telCapture {
	caps := make([]telCapture, len(specs))
	merged := make([]*telemetry.Sink, len(specs))
	for i := range specs {
		merged[i] = &telemetry.Sink{}
	}
	for pi, ph := range w.Phases {
		st := l.Streams(w)[pi]
		pols, models := l.instances(specs, w)
		sinks := make([]*telemetry.Sink, len(specs))
		for i := range sinks {
			sinks[i] = &telemetry.Sink{}
		}
		results := cpu.MultiWindowReplay(st.Records, l.Cfg, pols, l.warm(len(st.Records)), models, sinks)
		for i, r := range results {
			caps[i].phases = append(caps[i].phases, explain.PhaseStats{
				Weight:       ph.Weight,
				Misses:       r.Misses,
				Hits:         r.Hits,
				Accesses:     r.Accesses,
				Instructions: r.Instructions,
				HitReuse:     sinks[i].HitReuse.Snapshot(),
			})
			merged[i].Merge(sinks[i])
		}
	}
	for i := range caps {
		c := &caps[i]
		c.merged = merged[i].Report()
		c.mpki = weighted(w, func(p int) float64 {
			return l.phaseMPKI(c.phases[p].Misses, c.phases[p].Instructions)
		})
	}
	return caps
}

// telOf returns the capture of one (spec, workload), capturing it alone if
// no batch settled it first.
func (l *Lab) telOf(spec Spec, w workload.Workload) telCapture {
	return l.tels.get(telKey(spec, w), func() telCapture { return l.capture([]Spec{spec}, w)[0] })
}

// captureTel settles the captures of every given spec on w with a single
// walk per phase, skipping specs that are settled or being captured
// elsewhere.
func (l *Lab) captureTel(specs []Spec, w workload.Workload) {
	batch(&l.tels, specs, func(s Spec) string { return telKey(s, w) },
		func(todo []Spec) []telCapture { return l.capture(todo, w) })
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

// Diff explains spec b relative to spec a on one workload: both sides are
// captured from a single instrumented pass over the workload's streams
// (one cpu.MultiWindowReplay per phase), then decomposed by
// explain.Diff. Results are memoized per (a, b, workload) and captures
// are shared across diffs — Diff(A, B, w) then Diff(A, C, w) replays A
// once. The headline MPKIs equal Lab.MPKI bit for bit.
func (l *Lab) Diff(a, b Spec, w workload.Workload) (*explain.Explanation, error) {
	d := l.diffs.get(a.Key+"|"+b.Key+"|"+w.Name, func() diffResult {
		l.captureTel([]Spec{a, b}, w)
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
