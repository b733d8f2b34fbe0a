// Command gippr-evolve runs the paper's genetic-algorithm IPV search
// (Section 4) against the synthetic workload suite.
//
// Usage:
//
//	gippr-evolve [-scale smoke|default|full] [-pop N] [-gens N] [-seeds N]
//	             [-bake] [-hillclimb N] [-workers N]
//	             [-checkpoint path] [-resume] [-deadline dur]
//	             [-progress-every dur] [-debug-addr host:port]
//
// A progress line (stage, generation, rate, checkpoint age) is printed to
// stderr every -progress-every while the search runs; -debug-addr serves
// the same gauges as expvar at /debug/vars alongside the pprof suite.
//
// Without -bake it evolves one vector and prints the per-generation best.
// With -bake it reproduces the full vector pipeline the shipped experiments
// use — a pool of independently evolved vectors per training set, greedy
// complementary selection of 1/2/4-vector sets, workload-inclusive and
// per-fold workload-neutral — and prints a Go source fragment to paste into
// internal/experiments/vectors.go.
//
// Long runs are crash-safe: -checkpoint names a snapshot file written
// atomically at every GA generation boundary and completed pipeline stage,
// and -resume continues from it after a crash or interrupt, producing
// vectors bit-identical to an uninterrupted run. SIGINT/SIGTERM and
// -deadline cancel gracefully — in-flight evaluations drain, a final
// checkpoint is on disk, and the process exits with code 3 (distinct from
// failures at 1). The checkpoint records a config fingerprint and refuses
// to resume under different flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"gippr/internal/checkpoint"
	"gippr/internal/experiments"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/runctx"
)

// prog is the tool-wide gauge block: one work unit per completed GA
// generation, the generation gauge tracking the run in flight, and the
// checkpoint-age gauge fed by saveCkpt. Served via -debug-addr and printed
// periodically via -progress-every.
var prog = runctx.NewProgress("gippr-evolve")

func main() {
	scaleFlag := flag.String("scale", "", "experiment scale (overrides GIPPR_SCALE)")
	pop := flag.Int("pop", 0, "population size (0 = scale default)")
	gens := flag.Int("gens", 0, "generations (0 = scale default)")
	nSeeds := flag.Int("seeds", 4, "independently seeded GA runs feeding the vector pool")
	bake := flag.Bool("bake", false, "emit Go source for internal/experiments/vectors.go")
	hillclimb := flag.Int("hillclimb", 0, "hill-climbing rounds to refine the best vector (non-bake mode)")
	workers := flag.Int("workers", 0, "worker goroutines for stream building and fitness evaluation (0 = GOMAXPROCS)")
	ckptPath := flag.String("checkpoint", "", "snapshot file written at every generation boundary (crash safety)")
	resume := flag.Bool("resume", true, "with -checkpoint: continue from an existing snapshot instead of overwriting it")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; on expiry the run drains, checkpoints and exits with code 3")
	progressEvery := flag.Duration("progress-every", 30*time.Second, "interval between progress lines on stderr (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve expvar progress gauges and pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-evolve:", err)
		os.Exit(runctx.ExitUsage)
	}
	if *pop == 0 {
		*pop = scale.GAPopulation
	}
	if *gens == 0 {
		*gens = scale.GAGenerations
	}

	ctx, stop := runctx.Setup(*deadline)
	defer stop()

	stopDebug, err := runctx.MaybeServeDebug(*debugAddr, prog)
	if err != nil {
		fatal(err)
	}
	defer stopDebug()
	runctx.StartProgressLog(ctx, os.Stderr, *progressEvery, prog)

	lab := experiments.NewLab(scale).SetWorkers(*workers)
	fmt.Fprintf(os.Stderr, "building LLC streams (%s scale, %d workers)...\n", scale.Name, lab.Workers)
	prog.SetPhase("build streams")
	start := time.Now()
	env, err := lab.GAEnvCtx(ctx)
	if err != nil {
		// Cancelled before any search state exists: nothing to checkpoint.
		fmt.Fprintln(os.Stderr, runctx.Explain("gippr-evolve", err))
		os.Exit(runctx.ExitCode(err))
	}
	fmt.Fprintf(os.Stderr, "streams ready in %v; %d fitness streams\n", time.Since(start).Round(time.Second), len(env.Streams()))

	if !*bake {
		runSingle(ctx, env, scale, *pop, *gens, *hillclimb, *ckptPath, *resume)
		return
	}
	runBake(ctx, env, scale, *pop, *gens, *nSeeds, *ckptPath, *resume)
}

// fingerprint identifies a search configuration for checkpoint resume
// compatibility. Anything that changes the random trajectory or the fitness
// function belongs here; the worker count deliberately does not (results
// are bit-identical at any width).
func fingerprint(mode string, scale experiments.Scale, pop, gens, nSeeds int) string {
	return fmt.Sprintf("gippr-evolve|v1|%s|scale=%s|phase=%d|evolve=%d|warm=%.6f|pop=%d|gens=%d|nseeds=%d|folds=%d",
		mode, scale.Name, scale.PhaseRecords, scale.EvolveRecords, scale.WarmFrac,
		pop, gens, nSeeds, experiments.NumFolds)
}

// fatal reports a hard failure and exits non-zero (satellite audit: no cmd
// tool may swallow an error and exit 0).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gippr-evolve:", err)
	os.Exit(runctx.ExitFailure)
}

// exitCancelled reports a graceful stop and exits with the distinct
// cancellation code, naming the checkpoint that allows resumption.
func exitCancelled(err error, ckptPath string) {
	fmt.Fprintln(os.Stderr, runctx.Explain("gippr-evolve", err))
	if ckptPath != "" {
		fmt.Fprintf(os.Stderr, "gippr-evolve: resume with -checkpoint %s\n", ckptPath)
	} else {
		fmt.Fprintln(os.Stderr, "gippr-evolve: progress lost (no -checkpoint given)")
	}
	os.Exit(runctx.ExitCancelled)
}

// saveCkpt persists a snapshot or dies: continuing past a failed checkpoint
// write would silently drop crash safety.
func saveCkpt(path, fp string, payload any) {
	if path == "" {
		return
	}
	if err := checkpoint.Save(path, fp, payload); err != nil {
		fatal(err)
	}
	prog.MarkCheckpoint()
}

// loadCkpt loads a snapshot into out. Returns false when none exists (fresh
// start); corrupt files and fingerprint mismatches are fatal with the
// checkpoint package's explanatory errors.
func loadCkpt(path, fp string, out any) bool {
	if path == "" {
		return false
	}
	err := checkpoint.Load(path, fp, out)
	switch {
	case err == nil:
		return true
	case errors.Is(err, fs.ErrNotExist):
		return false
	default:
		fatal(err)
		return false
	}
}

// removeCkpt deletes the snapshot after a fully successful run so a rerun
// starts fresh instead of instantly "resuming" a finished search.
func removeCkpt(path string) {
	if path == "" {
		return
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "gippr-evolve: warning: could not remove checkpoint %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "run complete; checkpoint %s removed\n", path)
}

// runSingle is the non-bake path: one GA run, optional hill climbing.
func runSingle(ctx context.Context, env *ga.Env, scale experiments.Scale, pop, gens, hillclimb int, ckptPath string, resume bool) {
	fp := fingerprint("single", scale, pop, gens, 0)
	prog.SetPhase("evolve")
	prog.SetTotal(uint64(gens))
	cfg := gaConfig(pop, gens, 0x90)
	gauges := cfg.OnGeneration
	cfg.OnGeneration = func(gen int, best ga.Scored) {
		gauges(gen, best)
		fmt.Fprintf(os.Stderr, "gen %2d: best fitness %.4f %v\n", gen, best.Fitness, best.Vector)
	}
	if ckptPath != "" {
		if resume {
			var st ga.State
			if loadCkpt(ckptPath, fp, &st) {
				fmt.Fprintf(os.Stderr, "resuming from %s at generation %d\n", ckptPath, st.Generation)
				cfg.Resume = &st
			}
		}
		cfg.OnState = func(st ga.State) { saveCkpt(ckptPath, fp, st) }
	}
	best, fit, hist, err := ga.Evolve(ctx, env, cfg)
	if err != nil {
		exitCancelled(err, ckptPath)
	}
	// The per-generation history is consumed here, not discarded: its
	// length is the completed-generation count the operator sees.
	fmt.Fprintf(os.Stderr, "evolution complete after %d generations\n", len(hist))
	if hillclimb > 0 {
		fmt.Fprintf(os.Stderr, "hill climbing (%d rounds)...\n", hillclimb)
		best, fit, err = ga.HillClimb(ctx, env, best, hillclimb)
		if err != nil {
			// Hill climbing is anytime: report the refinement achieved so
			// far, then exit with the cancellation code. It is not part of
			// the checkpointable GA state (rerun -hillclimb to redo it).
			fmt.Printf("best vector (climb interrupted): %v\nfitness (est. speedup over LRU): %.4f\n", best, fit)
			exitCancelled(err, ckptPath)
		}
	}
	fmt.Printf("best vector: %v\nfitness (est. speedup over LRU): %.4f\n", best, fit)
	removeCkpt(ckptPath)
}

// stageResult is one completed bake stage in the checkpoint: the evolved
// pool and its greedy 1/2/4-vector complementary selections, serialized as
// vector strings so resume goes through ipv.Parse validation.
type stageResult struct {
	Pool []string `json:"pool"`
	Sel1 []string `json:"sel1"`
	Sel2 []string `json:"sel2"`
	Sel4 []string `json:"sel4"`
}

// bakeState is the -bake pipeline's checkpoint payload. Stages[0] is the
// workload-inclusive stage, Stages[1+f] is holdout fold f; Run/Pool/GA
// describe progress inside the first incomplete stage at GA-generation
// granularity.
type bakeState struct {
	Stages []*stageResult `json:"stages"`
	Run    int            `json:"run"`
	Pool   []string       `json:"pool,omitempty"`
	GA     *ga.State      `json:"ga,omitempty"`
}

// baker drives the bake pipeline with checkpointing woven through it.
type baker struct {
	ctx               context.Context
	path, fp          string
	st                bakeState
	pop, gens, nSeeds int
}

func (b *baker) save() { saveCkpt(b.path, b.fp, &b.st) }

// parseVectors rebuilds vectors from checkpoint strings; ipv.Parse (not
// MustParse) because a checkpoint file is external input.
func parseVectors(ss []string) ([]ipv.Vector, error) {
	out := make([]ipv.Vector, len(ss))
	for i, s := range ss {
		v, err := ipv.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("checkpoint vector %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func vectorStrings(vs []ipv.Vector) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// stage runs bake stage idx (evolve nSeeds GA runs into a pool over env,
// then select the 1/2/4-vector complementary sets), resuming any progress
// the checkpoint holds, and memoizes the completed result in the
// checkpoint. A cancellation error propagates after the state is saved.
func (b *baker) stage(idx int, env *ga.Env, label string, seedBase uint64) (*stageResult, error) {
	if done := b.st.Stages[idx]; done != nil {
		fmt.Fprintf(os.Stderr, "stage %s already complete in checkpoint; skipping\n", label)
		prog.Add(uint64(b.nSeeds * b.gens)) // skipped generations still count as done
		return done, nil
	}
	prog.SetPhase(label)
	// The pool starts with the classic LRU/LIP corners so the complementary
	// selector can always fall back on them.
	pool := []ipv.Vector{ipv.LRU(16), ipv.LIP(16)}
	if b.st.Pool != nil {
		restored, err := parseVectors(b.st.Pool)
		if err != nil {
			return nil, err
		}
		pool = restored
		fmt.Fprintf(os.Stderr, "stage %s: resuming at run %d/%d\n", label, b.st.Run, b.nSeeds)
	} else {
		b.st.Pool = vectorStrings(pool)
	}
	resumeRun := b.st.Run
	for r := resumeRun; r < b.nSeeds; r++ {
		cfg := gaConfig(b.pop, b.gens, seedBase+uint64(r)*977)
		if r == resumeRun && b.st.GA != nil {
			fmt.Fprintf(os.Stderr, "  run %d: resuming at generation %d\n", r, b.st.GA.Generation)
			cfg.Resume = b.st.GA
		}
		cfg.OnState = func(st ga.State) {
			b.st.GA = &st
			b.save()
		}
		best, fit, hist, err := ga.Evolve(b.ctx, env, cfg)
		if err != nil {
			return nil, err // last generation boundary already checkpointed
		}
		fmt.Fprintf(os.Stderr, "  run %d: fitness %.4f after %d generations %v\n", r, fit, len(hist), best)
		pool = append(pool, best)
		b.st.Run = r + 1
		b.st.Pool = append(b.st.Pool, best.String())
		b.st.GA = nil
		b.save()
	}
	s1, err := ga.SelectComplementary(b.ctx, env, pool, 1)
	if err != nil {
		return nil, err
	}
	s2, err := ga.SelectComplementary(b.ctx, env, pool, 2)
	if err != nil {
		return nil, err
	}
	s4, err := ga.SelectComplementary(b.ctx, env, pool, 4)
	if err != nil {
		return nil, err
	}
	res := &stageResult{
		Pool: vectorStrings(pool),
		Sel1: vectorStrings(s1),
		Sel2: vectorStrings(s2),
		Sel4: vectorStrings(s4),
	}
	b.st.Stages[idx] = res
	b.st.Run, b.st.Pool, b.st.GA = 0, nil, nil
	b.save()
	return res, nil
}

// runBake is the full pipeline: a workload-inclusive stage plus one
// workload-neutral stage per holdout fold, then the Go source emission.
func runBake(ctx context.Context, env *ga.Env, scale experiments.Scale, pop, gens, nSeeds int, ckptPath string, resume bool) {
	fp := fingerprint("bake", scale, pop, gens, nSeeds)
	prog.SetTotal(uint64((1 + experiments.NumFolds) * nSeeds * gens))
	b := &baker{ctx: ctx, path: ckptPath, fp: fp, pop: pop, gens: gens, nSeeds: nSeeds}
	b.st.Stages = make([]*stageResult, 1+experiments.NumFolds)
	if resume {
		var prev bakeState
		if loadCkpt(ckptPath, fp, &prev) && len(prev.Stages) == len(b.st.Stages) {
			b.st = prev
			fmt.Fprintf(os.Stderr, "resuming bake from %s\n", ckptPath)
		}
	}

	fmt.Fprintf(os.Stderr, "evolving workload-inclusive pool (%d runs x pop %d x %d gens)...\n",
		nSeeds, pop, gens)
	wi, err := b.stage(0, env, "workload-inclusive", 0x1000)
	if err != nil {
		exitCancelled(err, ckptPath)
	}

	folds := make([]*stageResult, experiments.NumFolds)
	for f := 0; f < experiments.NumFolds; f++ {
		fold := f
		sub := env.Subset(func(w string) bool { return experiments.FoldOf(w) != fold })
		fmt.Fprintf(os.Stderr, "evolving fold %d holdout pool (%d streams)...\n", f, len(sub.Streams()))
		folds[f], err = b.stage(1+f, sub, fmt.Sprintf("fold-%d", f), uint64(0x2000+f))
		if err != nil {
			exitCancelled(err, ckptPath)
		}
	}

	if err := emitBake(wi, folds); err != nil {
		fatal(err)
	}
	removeCkpt(ckptPath)
}

// emitBake prints the Go source fragment from the completed stage results.
func emitBake(wi *stageResult, folds []*stageResult) error {
	wi1, err := parseVectors(wi.Sel1)
	if err != nil {
		return err
	}
	wi2, err := parseVectors(wi.Sel2)
	if err != nil {
		return err
	}
	wi4, err := parseVectors(wi.Sel4)
	if err != nil {
		return err
	}

	fmt.Println("// Generated by `go run ./cmd/gippr-evolve -bake`; paste over the")
	fmt.Println("// corresponding declarations in internal/experiments/vectors.go.")
	fmt.Printf("var (\n")
	fmt.Printf("\twiVector1  = ipv.MustParse(%q)\n", wi1[0].String())
	fmt.Printf("\twiVectors2 = [2]ipv.Vector{\n\t\tipv.MustParse(%q),\n\t\tipv.MustParse(%q),\n\t}\n",
		wi2[0].String(), pad(wi2, 2)[1].String())
	fmt.Printf("\twiVectors4 = [4]ipv.Vector{\n")
	for _, v := range pad(wi4, 4) {
		fmt.Printf("\t\tipv.MustParse(%q),\n", v.String())
	}
	fmt.Printf("\t}\n)\n\nfunc init() {\n")
	for f := 0; f < experiments.NumFolds; f++ {
		s1, err := parseVectors(folds[f].Sel1)
		if err != nil {
			return err
		}
		s2, err := parseVectors(folds[f].Sel2)
		if err != nil {
			return err
		}
		s4, err := parseVectors(folds[f].Sel4)
		if err != nil {
			return err
		}
		var wn2 [2]ipv.Vector
		var wn4 [4]ipv.Vector
		copy(wn2[:], pad(s2, 2))
		copy(wn4[:], pad(s4, 4))
		fmt.Printf("\twnVectors1[%d] = ipv.MustParse(%q)\n", f, s1[0].String())
		fmt.Printf("\twnVectors2[%d] = [2]ipv.Vector{\n\t\tipv.MustParse(%q),\n\t\tipv.MustParse(%q),\n\t}\n",
			f, wn2[0].String(), wn2[1].String())
		fmt.Printf("\twnVectors4[%d] = [4]ipv.Vector{\n", f)
		for _, v := range wn4 {
			fmt.Printf("\t\tipv.MustParse(%q),\n", v.String())
		}
		fmt.Printf("\t}\n")
	}
	fmt.Printf("}\n")
	return nil
}

func gaConfig(pop, gens int, seed uint64) ga.Config {
	cfg := ga.DefaultConfig(seed)
	cfg.Population = pop
	cfg.Generations = gens
	cfg.OnGeneration = func(gen int, _ ga.Scored) {
		prog.SetGeneration(uint64(gen + 1))
		prog.Add(1)
	}
	cfg.Seeds = []ipv.Vector{
		ipv.LRU(16), ipv.LIP(16), ipv.MidClimb(16),
		ipv.PaperWIGIPPR,
		ipv.PaperWI4DGIPPR[0], ipv.PaperWI4DGIPPR[1],
		ipv.PaperWI4DGIPPR[2], ipv.PaperWI4DGIPPR[3],
	}
	return cfg
}

// pad repeats the last element until the slice has n entries (the greedy
// selector can return fewer when the pool is tiny).
func pad(vs []ipv.Vector, n int) []ipv.Vector {
	for len(vs) < n {
		vs = append(vs, vs[len(vs)-1].Clone())
	}
	return vs[:n]
}
