package serve

import (
	"context"
	"fmt"
	"strings"

	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/workload"
)

// query is everything a job's kind (grid, sweep or explain) determines.
// resolve decides the kind once and builds the query; past that point no
// stage asks which kind a job is. The fingerprint, execution, status view,
// NDJSON stream and manifest each run one path over these fields.
type query struct {
	// policies are the spec labels the fingerprint and the status view
	// name. A sweep has none: its lattice is its policy set.
	policies []string
	// ipv is the canonical form of the request's IPV (ipv.Parse, then
	// String), "" if unset, so equivalent spellings share one store key.
	ipv string
	// tail ends the fingerprint: "" for a grid, "|sweep=<key>" or
	// "|explain=v<version>". Grid keys predate the other kinds, so they
	// carry no suffix and their store entries stay valid.
	tail string
	// per is the number of items each workload yields.
	per int
	// labels returns each workload's item labels in manifest order: spec
	// labels, lattice point labels, or none for the one explanation. It
	// builds them on demand so a kept job does not hold a lattice's labels.
	labels func() []string
	// run is the one engine call. It emits every item of the job, each
	// workload's items in labels order: a *experiments.GridCell or a
	// *explain.Explanation.
	run func(ctx context.Context, lab *experiments.Lab, wls []workload.Workload, emit func(any)) error
}

// gridQuery resolves a {workloads x policies} grid: the named registry
// policies (gippr-sim's default set unless the request is exact), plus a
// GIPPR policy driven by the request's IPV, if any.
func gridQuery(req JobRequest) (query, error) {
	names := req.Policies
	if len(names) == 0 && !req.Exact {
		names = defaultPolicies
	}
	var specs []experiments.Spec
	for _, n := range names {
		sp, err := experiments.SpecFromRegistry(strings.TrimSpace(n))
		if err != nil {
			return query{}, err
		}
		specs = append(specs, sp)
	}
	var canon string
	if req.IPV != "" {
		v, err := ipv.Parse(req.IPV)
		if err != nil {
			return query{}, err
		}
		canon = v.String()
		specs = append(specs, experiments.SpecForIPV("GIPPR*", v))
	}
	if len(specs) == 0 {
		// Only reachable with Exact set: an exact request must name at
		// least one policy (or carry an IPV). There is no default for it.
		return query{}, fmt.Errorf("%w: exact request names no policies", ErrBadRequest)
	}
	labels := make([]string, len(specs))
	for i, sp := range specs {
		labels[i] = sp.Label
	}
	return query{
		policies: labels,
		ipv:      canon,
		per:      len(specs),
		labels:   func() []string { return labels },
		run: func(ctx context.Context, lab *experiments.Lab, wls []workload.Workload, emit func(any)) error {
			_, err := lab.Grid(ctx, specs, wls, func(c experiments.GridCell) { emit(&c) })
			return err
		},
	}, nil
}

// sweepQuery resolves a one-pass sweep: the whole lattice is one stream
// walk per workload, and cells settle as each walk finishes. The lattice
// is validated here, at submission, so an impossible or oversized one is
// a 400 (cache.ErrBadGeometry), never a failure mid-replay.
func (s *Server) sweepQuery(sp experiments.LatticeSpec) (query, error) {
	if err := sp.Validate(s.base.Cfg.BlockBytes); err != nil {
		return query{}, err
	}
	return query{
		tail:   "|sweep=" + sp.Key(),
		per:    sp.Points(),
		labels: sp.Labels,
		run: func(ctx context.Context, lab *experiments.Lab, wls []workload.Workload, emit func(any)) error {
			_, err := lab.SweepGrid(ctx, sp, wls, func(c experiments.GridCell) { emit(&c) })
			return err
		},
	}, nil
}

// explainQuery resolves a policy-diff job: one explanation per workload of
// PolicyB's miss delta against PolicyA. Each policy settles from its own
// memoized instrumented capture of the workload (one walk per phase), the
// captures the decomposition identity rests on; workloads fan out over the
// Lab's workers.
func explainQuery(req ExplainRequest) (query, error) {
	a, err := experiments.SpecFromRegistry(strings.TrimSpace(req.PolicyA))
	if err != nil {
		return query{}, err
	}
	b, err := experiments.SpecFromRegistry(strings.TrimSpace(req.PolicyB))
	if err != nil {
		return query{}, err
	}
	return query{
		policies: []string{a.Label, b.Label},
		tail:     fmt.Sprintf("|explain=v%d", explain.Version),
		per:      1,
		labels:   func() []string { return nil },
		run: func(ctx context.Context, lab *experiments.Lab, wls []workload.Workload, emit func(any)) error {
			errs := make([]error, len(wls))
			err := parallel.ForCtx(ctx, lab.Workers, len(wls), func(i int) {
				e, err := lab.Diff(a, b, wls[i])
				if err != nil {
					errs[i] = err
					return
				}
				emit(e)
			})
			if err != nil {
				return err
			}
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
