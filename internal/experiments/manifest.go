package experiments

import (
	"context"

	"gippr/internal/parallel"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

// TelemetryEntries returns the manifest entry of every spec on one
// workload, in spec order: weighted MPKI plus the LLC's event-level report
// (insertion positions, promotion distances, reuse and dead-time
// histograms, dueling votes) over the measurement windows of all phases.
// Each entry is the memoized instrumented capture Diff also reads (telOf),
// kept apart from the terminal-number memo, so each entry still describes
// one coherent run. Callers such as gippr-sim's -telemetry path pick their
// own workloads.
func (l *Lab) TelemetryEntries(specs []Spec, w workload.Workload) []telemetry.Entry {
	entries := make([]telemetry.Entry, len(specs))
	for i, s := range specs {
		c := l.telOf(s, w)
		entries[i] = telemetry.Entry{Workload: w.Name, Policy: s.Label, MPKI: c.mpki, LLC: c.merged}
	}
	return entries
}

// Geometry describes the lab's LLC for a manifest: its shape plus, when
// the lab samples sets, the sampling shift and the sampled set count.
func (l *Lab) Geometry() telemetry.CacheGeometry {
	g := telemetry.CacheGeometry{
		Name:       l.Cfg.Name,
		SizeBytes:  l.Cfg.SizeBytes,
		Ways:       l.Cfg.Ways,
		BlockBytes: l.Cfg.BlockBytes,
		Sets:       l.Cfg.Sets(),
	}
	if l.Cfg.SampleShift > 0 {
		g.SampleShift = l.Cfg.SampleShift
		g.SampledSets = l.Cfg.SampledSets()
	}
	return g
}

// Manifest builds a run manifest over specs x the lab's workload suite,
// replaying each (policy, workload) pair with telemetry attached. Each
// workload is one parallel task that reads its specs' captures in turn
// (TelemetryEntries), so entry values do not depend on the worker count.
// The entry order is deterministic (spec-major, suite order) regardless of
// scheduling. On cancellation the partial manifest built so far is
// returned with ctx's error; a workload's entries are either all present
// or all absent, never truncated mid-workload.
func (l *Lab) Manifest(ctx context.Context, tool, fingerprint string, specs []Spec) (*telemetry.Manifest, error) {
	m := &telemetry.Manifest{
		Tool:        tool,
		Fingerprint: fingerprint,
		Cache:       l.Geometry(),
		Records:     l.Scale.PhaseRecords,
		WarmFrac:    l.Scale.WarmFrac,
	}
	perWorkload := make([][]telemetry.Entry, len(l.suite))
	err := parallel.ForCtx(ctx, l.Workers, len(l.suite), func(wi int) {
		perWorkload[wi] = l.TelemetryEntries(specs, l.suite[wi])
	})
	for si := range specs {
		for wi := range l.suite {
			if perWorkload[wi] != nil {
				m.Entries = append(m.Entries, perWorkload[wi][si])
			}
		}
	}
	return m, err
}
