package experiments

import (
	"context"

	"gippr/internal/stats"
	"gippr/internal/workload"
)

// GridCell is one (workload, policy) result of a simulation grid: the
// weighted per-phase aggregates a gippr-sim table row prints and a served
// job streams. Every numeric field is computed from the lab's memoized
// phase results with the exact expressions the pre-refactor gippr-sim grid
// used, so any two engines that share a Lab produce bit-identical cells.
type GridCell struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	MPKI     float64 `json:"mpki"`
	HitPct   float64 `json:"hit_pct"`
	IPC      float64 `json:"ipc"`
	Misses   uint64  `json:"misses"`
	Accesses uint64  `json:"accesses"`
}

// cellOf aggregates one workload's per-phase results for one spec into its
// grid cell. Per-phase IPC is instructions/cycles (not 1/CPI: the two agree
// mathematically but associate floats differently, and cells promise
// bit-identity across engines); hit rate describes the simulated sets,
// which under sampling means the sampled subset.
func (l *Lab) cellOf(spec Spec, w workload.Workload) GridCell {
	cell := GridCell{Workload: w.Name, Policy: spec.Label}
	mpkis := make([]float64, len(w.Phases))
	hitrs := make([]float64, len(w.Phases))
	ipcs := make([]float64, len(w.Phases))
	wts := make([]float64, len(w.Phases))
	for pi, ph := range w.Phases {
		res := l.phaseRun(spec, w, pi)
		mpkis[pi] = res.MPKI
		acc := res.Accesses
		if acc < 1 {
			acc = 1
		}
		hitrs[pi] = 100 * float64(res.Hits) / float64(acc)
		ipcs[pi] = float64(res.Instrs) / res.Cycles
		wts[pi] = ph.Weight
		cell.Misses += res.Misses
		cell.Accesses += res.Accesses
	}
	cell.MPKI = stats.WeightedMean(mpkis, wts)
	cell.HitPct = stats.WeightedMean(hitrs, wts)
	cell.IPC = stats.WeightedMean(ipcs, wts)
	return cell
}

// Grid evaluates specs x workloads and returns the cells in workload-major
// order (all specs of workloads[0], then workloads[1], ...). It runs on the
// lab's one cell schedule, the one the figure runners use: the workloads'
// stream builds first, then one task per (spec, workload, phase) cell on
// l.Workers goroutines, each a memoized one-policy replay. When a
// workload's last cell settles, its per-phase results aggregate into its
// cells, so a cold grid's first cell follows all of its stream builds.
// Cell values are bit-identical at any worker count and across repeat
// calls (later calls are pure memo reads).
//
// onCell, when non-nil, is invoked once per cell as soon as its workload's
// last cell settles — the job daemon streams cells to clients from it. It
// is called concurrently from worker goroutines and must be safe for that.
//
// On cancellation no new cell starts, in-flight cells drain, and Grid
// returns the partial cell slice alongside ctx's error. A workload's cells
// are delivered and returned all or none: those of workloads whose cells
// did not all settle are zero-valued and never reach onCell.
func (l *Lab) Grid(ctx context.Context, specs []Spec, wls []workload.Workload, onCell func(GridCell)) ([]GridCell, error) {
	cells := make([]GridCell, len(wls)*len(specs))
	err := l.settle(ctx, specs, wls, false, func(wi int) {
		for si, spec := range specs {
			cell := l.cellOf(spec, wls[wi])
			cells[wi*len(specs)+si] = cell
			if onCell != nil {
				onCell(cell)
			}
		}
	})
	return cells, err
}
