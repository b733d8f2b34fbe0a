// Command gippr-sweep reproduces the paper's Figure 1 exploration: sample
// uniformly random insertion/promotion vectors, score each with the GA
// fitness function, and print the sorted speedup curve. With -onepass it
// instead sweeps the cache design space itself: one walk of each workload
// stream scores every LRU (set count x associativity) lattice point exactly
// via the Mattson stack-distance engine, plus any -plru tree-PLRU
// geometries grouped into the same pass.
//
// Usage:
//
//	gippr-sweep [-n 400] [-scale smoke|default|full] [-seed N] [-csv]
//	            [-sample S] [-workers N] [-deadline dur] [-progress-every dur]
//	            [-debug-addr host:port]
//	gippr-sweep -onepass [-min-sets N] [-max-sets N] [-max-ways N]
//	            [-plru SETSxWAYS,... | -plru none] [-workloads a,b|all]
//	            [-scale ...] [-csv] [-workers N] [-deadline dur]
//
// A progress line (samples done, rate) is printed to stderr every
// -progress-every while the sweep runs; -debug-addr serves the same gauges
// as expvar at /debug/vars alongside the pprof suite. With -sample S > 0,
// fitness is evaluated on a hashed 1-in-2^S subset of LLC sets with miss
// counts scaled back up — a fast estimator for wide sweeps; full runs stay
// bit-identical to earlier builds. The one-pass sweep is always exact and
// rejects -sample, and any impossible geometry range (non-power-of-two
// sets, tree-PLRU ways beyond a PseudoLRU set's capacity) fails up front
// with the usage exit code, never mid-replay. SIGINT/SIGTERM or -deadline
// stop either sweep gracefully with exit code 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gippr/internal/cache"
	"gippr/internal/experiments"
	"gippr/internal/ga"
	"gippr/internal/runctx"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/workload"
)

func main() {
	n := flag.Int("n", 0, "number of random IPVs to sample (0 = scale default; the paper used 15000)")
	scaleFlag := flag.String("scale", "", "experiment scale (overrides GIPPR_SCALE)")
	seed := flag.Uint64("seed", 0xF161, "random seed")
	csv := flag.Bool("csv", false, "emit the full sorted curve as CSV (index,speedup) for plotting")
	sample := flag.Int("sample", 0, "set-sampling shift: simulate a hashed 1-in-2^S subset of LLC sets (0 = full fidelity)")
	workers := flag.Int("workers", 0, "worker goroutines for stream building and fitness evaluation (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; on expiry the sweep drains and exits with code 3")
	progressEvery := flag.Duration("progress-every", 30*time.Second, "interval between progress lines on stderr (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve expvar progress gauges and pprof on this address (e.g. localhost:6060)")
	onepass := flag.Bool("onepass", false, "run the one-pass all-geometry sweep instead of the random-IPV sweep")
	minSets := flag.Int("min-sets", 0, "one-pass: smallest lattice set count, a power of two (0 = a quarter of the LLC's)")
	maxSets := flag.Int("max-sets", 0, "one-pass: largest lattice set count, a power of two (0 = the LLC's)")
	maxWays := flag.Int("max-ways", 0, "one-pass: largest lattice associativity (0 = the LLC's)")
	plruFlag := flag.String("plru", "", "one-pass: comma-separated SETSxWAYS tree-PLRU geometries to co-simulate (empty = the LLC's own shape, \"none\" = no PLRU)")
	workloadsFlag := flag.String("workloads", "all", "one-pass: comma-separated workload names, or \"all\"")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-sweep:", err)
		os.Exit(runctx.ExitUsage)
	}
	if *n == 0 {
		*n = scale.RandomIPVs
	}

	ctx, stop := runctx.Setup(*deadline)
	defer stop()

	prog := runctx.NewProgress("gippr-sweep")
	prog.SetTotal(uint64(*n))
	stopDebug, err := runctx.MaybeServeDebug(*debugAddr, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-sweep:", err)
		os.Exit(runctx.ExitFailure)
	}
	defer stopDebug()
	runctx.StartProgressLog(ctx, os.Stderr, *progressEvery, prog)

	lab := experiments.NewLab(scale).SetWorkers(*workers)

	if *onepass {
		if *sample != 0 {
			fmt.Fprintln(os.Stderr, "gippr-sweep: -onepass is always exact; it cannot combine with -sample")
			os.Exit(runctx.ExitUsage)
		}
		if err := runOnePass(ctx, prog, lab, *minSets, *maxSets, *maxWays, *plruFlag, *workloadsFlag, *csv); err != nil {
			fmt.Fprintln(os.Stderr, runctx.Explain("gippr-sweep", err))
			os.Exit(runctx.ExitCode(err))
		}
		return
	}

	shift, err := lab.Cfg.CheckSampleShift(*sample)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-sweep:", err)
		os.Exit(runctx.ExitCode(err))
	}
	lab.Cfg.SampleShift = shift
	fmt.Fprintf(os.Stderr, "building LLC streams (%s scale, %d workers)...\n", scale.Name, lab.Workers)
	if *sample > 0 {
		fmt.Fprintf(os.Stderr, "set sampling: %d of %d LLC sets (shift %d)\n",
			lab.Cfg.SampledSets(), lab.Cfg.Sets(), *sample)
	}
	prog.SetPhase("build streams")
	env, err := lab.GAEnvCtx(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, runctx.Explain("gippr-sweep", err))
		os.Exit(runctx.ExitCode(err))
	}

	prog.SetPhase("sample")
	start := time.Now()
	scored, err := ga.RandomSearch(ctx, env, *n, *seed, func() { prog.Add(1) })
	if err != nil {
		fmt.Fprintln(os.Stderr, runctx.Explain("gippr-sweep", err))
		os.Exit(runctx.ExitCode(err))
	}
	fmt.Fprintf(os.Stderr, "%d samples in %v\n", len(scored), time.Since(start).Round(time.Millisecond))

	if *csv {
		fmt.Println("index,speedup")
		for i, s := range scored {
			fmt.Printf("%d,%.6f\n", i, s.Fitness)
		}
		return
	}

	sorted := make([]float64, len(scored))
	for i, s := range scored {
		sorted[i] = s.Fitness
	}
	sum := stats.Summarize(sorted)
	fmt.Printf("Figure 1: %d uniformly random IPVs, estimated speedup over LRU\n", len(sorted))
	for _, p := range []float64{0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1} {
		fmt.Printf("  p%-4.0f %8.4f\n", p*100, stats.Percentile(sorted, p))
	}
	fmt.Printf("  fraction beating LRU: %.1f%%\n", 100*sum.FractionAboveOne)
	best := scored[len(scored)-1]
	fmt.Printf("  best random vector: %v (%.4f)\n", best.Vector, best.Fitness)
}

// parsePLRU parses the -plru flag: "" means the LLC's own shape (signalled
// by returning useDefault), "none" disables PLRU co-simulation, otherwise a
// comma-separated SETSxWAYS list.
func parsePLRU(s string) (geoms []stackdist.Geometry, useDefault bool, err error) {
	switch strings.TrimSpace(s) {
	case "":
		return nil, true, nil
	case "none":
		return nil, false, nil
	}
	for _, part := range strings.Split(s, ",") {
		var g stackdist.Geometry
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%dx%d", &g.Sets, &g.Ways); err != nil {
			return nil, false, fmt.Errorf("%w: bad tree-PLRU geometry %q (want SETSxWAYS, e.g. 4096x16)",
				cache.ErrBadGeometry, part)
		}
		geoms = append(geoms, g)
	}
	return geoms, false, nil
}

// runOnePass is the -onepass body: resolve the lattice spec (defaults come
// from the LLC under study), validate it before any stream is built, run
// the one-pass engine across the chosen workloads, and print per-workload
// lattice tables (or one CSV row per cell with -csv).
func runOnePass(ctx context.Context, prog *runctx.Progress, lab *experiments.Lab, minSets, maxSets, maxWays int, plruFlag, workloadsFlag string, csv bool) error {
	spec := experiments.DefaultLatticeSpec(lab.Cfg)
	if minSets != 0 {
		spec.MinSets = minSets
	}
	if maxSets != 0 {
		spec.MaxSets = maxSets
	}
	if maxWays != 0 {
		spec.MaxWays = maxWays
	}
	plru, useDefault, err := parsePLRU(plruFlag)
	if err != nil {
		return err
	}
	if !useDefault {
		spec.PLRU = plru
	}
	// The whole point of the up-front check: a lattice no geometry can
	// satisfy exits with the usage code before any multi-second stream
	// build starts.
	if err := spec.Validate(lab.Cfg.BlockBytes); err != nil {
		return err
	}

	var wls []workload.Workload
	if name := strings.TrimSpace(workloadsFlag); name == "" || name == "all" {
		wls = lab.Suite()
	} else {
		for _, n := range strings.Split(workloadsFlag, ",") {
			w, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			wls = append(wls, w)
		}
	}

	points := spec.Points()
	prog.SetPhase("one-pass sweep")
	prog.SetTotal(uint64(len(wls) * points))
	fmt.Fprintf(os.Stderr, "one-pass sweep: %d workloads x %d lattice points (sets %d..%d, ways 1..%d, %d tree-PLRU)\n",
		len(wls), points, spec.MinSets, spec.MaxSets, spec.MaxWays, len(spec.PLRU))

	start := time.Now()
	cells, err := lab.SweepGrid(ctx, spec, wls, func(experiments.GridCell) { prog.Add(1) })
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d cells in %v\n", len(cells), time.Since(start).Round(time.Millisecond))

	if csv {
		pts := spec.Options(1, 0).Lattice()
		fmt.Println("workload,policy,sets,ways,mpki,hit_pct,misses,accesses")
		for wi := range wls {
			for pi, p := range pts {
				c := cells[wi*points+pi]
				fmt.Printf("%s,%s,%d,%d,%.6f,%.4f,%d,%d\n",
					c.Workload, p.Policy, p.Sets, p.Ways, c.MPKI, c.HitPct, c.Misses, c.Accesses)
			}
		}
		return nil
	}
	report, err := lab.LatticeReport(ctx, spec, wls)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}
