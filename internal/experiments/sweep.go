package experiments

import (
	"context"
	"fmt"
	"strings"

	"gippr/internal/cache"
	"gippr/internal/parallel"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/workload"
)

// LatticeSpec names one one-pass geometry sweep: the LRU lattice bounds
// (every power-of-two set count in [MinSets, MaxSets] crossed with every
// associativity 1..MaxWays) plus the tree-PLRU geometries co-simulated in
// the same pass. The block size and warm-up come from the lab, so the same
// spec against the same lab always means the same cells.
type LatticeSpec struct {
	MinSets int                  `json:"min_sets"`
	MaxSets int                  `json:"max_sets"`
	MaxWays int                  `json:"max_ways"`
	PLRU    []stackdist.Geometry `json:"plru,omitempty"`
}

// DefaultLatticeSpec sweeps around a geometry: set counts from a quarter of
// the cache's up to the cache's, associativities up to the cache's, with
// tree-PLRU co-simulated at the cache's own shape.
func DefaultLatticeSpec(cfg cache.Config) LatticeSpec {
	sets := cfg.Sets()
	minSets := sets / 4
	if minSets < 1 {
		minSets = 1
	}
	return LatticeSpec{
		MinSets: minSets,
		MaxSets: sets,
		MaxWays: cfg.Ways,
		PLRU:    []stackdist.Geometry{{Sets: sets, Ways: cfg.Ways}},
	}
}

// Options renders the spec as a stackdist request for one stream.
func (sp LatticeSpec) Options(blockBytes, warm int) stackdist.Options {
	return stackdist.Options{
		BlockBytes: blockBytes,
		MinSets:    sp.MinSets,
		MaxSets:    sp.MaxSets,
		MaxWays:    sp.MaxWays,
		Warm:       warm,
		PLRU:       sp.PLRU,
	}
}

// Validate checks the spec against a block size up front; every failure
// wraps cache.ErrBadGeometry (usage exit code, HTTP 400 via serve).
func (sp LatticeSpec) Validate(blockBytes int) error {
	return sp.Options(blockBytes, 0).Validate()
}

// Points returns the number of cells one workload contributes: the full
// LRU lattice plus the PLRU geometries. Meaningful only for valid specs.
func (sp LatticeSpec) Points() int { return sp.Options(1, 0).Points() }

// Labels returns the canonical cell labels in result order — the order
// SweepGrid emits each workload's cells in.
func (sp LatticeSpec) Labels() []string { return sp.Options(1, 0).Labels() }

// Key is the spec's canonical memoization/fingerprint fragment.
func (sp LatticeSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%d:%d", sp.MinSets, sp.MaxSets, sp.MaxWays)
	for _, g := range sp.PLRU {
		fmt.Fprintf(&b, ",%dx%d", g.Sets, g.Ways)
	}
	return b.String()
}

// sweepPhase runs the one-pass engine over one workload phase, memoized
// like phaseRun: concurrent requests for the same (spec, workload, phase)
// coalesce into a single stream walk. The engine always runs at full
// fidelity — the lattice is exact by construction, so the lab's sampling
// shift (which trades exactness for speed on the grid path) does not apply.
// Callers must have validated the spec; an engine error here is a
// programmer error.
func (l *Lab) sweepPhase(spec LatticeSpec, w workload.Workload, phase int) *stackdist.Sweep {
	return l.sweeps.get(fmt.Sprintf("%s|%s|%d", spec.Key(), w.Name, phase), func() *stackdist.Sweep {
		st := l.Streams(w)[phase]
		sw, err := stackdist.Run(st.Records, spec.Options(l.Cfg.BlockBytes, l.warm(len(st.Records))))
		if err != nil {
			panic(fmt.Sprintf("experiments: one-pass sweep on validated spec: %v", err))
		}
		return sw
	})
}

// onePassCells evaluates the full lattice of a validated spec on one
// workload and returns one GridCell per lattice point, labeled
// "lru@SETSxWAYS" / "plru@SETSxWAYS", in LatticeSpec.Labels order.
// Aggregation over phases uses exactly the grid path's expressions
// (stats.MPKI per phase, then the weighted mean in the same order), so the
// lattice point matching a Spec's geometry and policy is bit-identical to
// that Spec's grid cell. Lattice cells carry no timing model: IPC is 0.
func (l *Lab) onePassCells(spec LatticeSpec, w workload.Workload) []GridCell {
	sweeps := make([]*stackdist.Sweep, len(w.Phases))
	for pi := range w.Phases {
		sweeps[pi] = l.sweepPhase(spec, w, pi)
	}
	points := sweeps[0].Results
	cells := make([]GridCell, len(points))
	mpkis := make([]float64, len(w.Phases))
	hitrs := make([]float64, len(w.Phases))
	wts := make([]float64, len(w.Phases))
	for gi := range points {
		cell := GridCell{Workload: w.Name, Policy: points[gi].Label()}
		for pi, ph := range w.Phases {
			res := sweeps[pi].Results[gi]
			mpkis[pi] = res.MPKI
			acc := res.Accesses
			if acc < 1 {
				acc = 1
			}
			hitrs[pi] = 100 * float64(res.Hits) / float64(acc)
			wts[pi] = ph.Weight
			cell.Misses += res.Misses
			cell.Accesses += res.Accesses
		}
		cell.MPKI = stats.WeightedMean(mpkis, wts)
		cell.HitPct = stats.WeightedMean(hitrs, wts)
		cells[gi] = cell
	}
	return cells
}

// SweepGrid evaluates the lattice across workloads through the memoized
// one-pass engine and returns cells in workload-major order (all lattice
// points of wls[0], then wls[1], ...), each workload one parallel task on
// l.Workers goroutines. Cell values are bit-identical at any worker count
// and across repeat calls. onCell follows the Grid contract: invoked once
// per settled cell, concurrently, as each workload's pass completes. On
// cancellation no new workload starts, in-flight ones drain, and the
// partial cells return alongside ctx's error.
func (l *Lab) SweepGrid(ctx context.Context, spec LatticeSpec, wls []workload.Workload, onCell func(GridCell)) ([]GridCell, error) {
	if err := spec.Validate(l.Cfg.BlockBytes); err != nil {
		return nil, err
	}
	points := spec.Points()
	cells := make([]GridCell, len(wls)*points)
	err := parallel.ForCtx(ctx, l.Workers, len(wls), func(wi int) {
		cs := l.onePassCells(spec, wls[wi])
		copy(cells[wi*points:(wi+1)*points], cs)
		if onCell != nil {
			for _, c := range cs {
				onCell(c)
			}
		}
	})
	return cells, err
}

// LatticeReport renders the geometry-lattice section: per workload, a
// table of LRU MPKI with one row per set count and one column per
// associativity, followed by one line per co-simulated tree-PLRU geometry.
func (l *Lab) LatticeReport(ctx context.Context, spec LatticeSpec, wls []workload.Workload) (string, error) {
	cells, err := l.SweepGrid(ctx, spec, wls, nil)
	if err != nil {
		return "", err
	}
	pts := spec.Options(1, 0).Lattice()
	points := spec.Points()
	var b strings.Builder
	for wi, w := range wls {
		t := &Table{
			Title:      fmt.Sprintf("One-pass lattice MPKI: %s (rows sets, cols ways)", w.Name),
			MeanFooter: true,
		}
		for wy := 1; wy <= spec.MaxWays; wy++ {
			t.Columns = append(t.Columns, fmt.Sprintf("w%d", wy))
		}
		rows := map[int]*TableRow{}
		var order []int
		var plruLines []string
		for pi, p := range pts {
			c := cells[wi*points+pi]
			if p.Policy == stackdist.PolicyPLRU {
				plruLines = append(plruLines,
					fmt.Sprintf("%-18s MPKI %10.4f   hit %6.2f%%", p.Label(), c.MPKI, c.HitPct))
				continue
			}
			r, ok := rows[p.Sets]
			if !ok {
				r = &TableRow{Name: fmt.Sprintf("lru s=%d", p.Sets)}
				rows[p.Sets] = r
				order = append(order, p.Sets)
			}
			r.Values = append(r.Values, c.MPKI)
		}
		for _, s := range order {
			t.Rows = append(t.Rows, *rows[s])
		}
		b.WriteString(t.Format())
		for _, line := range plruLines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
