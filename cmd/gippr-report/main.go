// Command gippr-report regenerates every figure of the paper's evaluation
// (see DESIGN.md section 3) as ASCII tables on stdout.
//
// Usage:
//
//	gippr-report [-scale smoke|default|full] [-only fig1,fig4,...] [-workers N]
//	             [-diff polA,polB] [-deadline dur] [-telemetry manifest.json]
//	             [-debug-addr host:port]
//
// The scale flag overrides the GIPPR_SCALE environment variable. With no
// -only flag, all sections are produced in paper order; -only takes names
// from the report section registry, and an unknown name is a usage error
// (exit code 2), never a silent skip. The diff section explains the second
// -diff policy relative to the first (default lru,gippr) with one
// explanation JSON line per workload — the same versioned document
// gippr-serve's /v1/explain streams. With -telemetry, an event-level JSON
// run manifest over the headline policy roster is written after the
// sections; with -debug-addr, live progress gauges are served as expvar at
// /debug/vars alongside the pprof suite. SIGINT/SIGTERM or -deadline stop
// the report at the next section boundary, the only place the tool checks
// them: the section in flight runs to completion at full width and prints
// (sections are all-or-nothing), later sections and the manifest are
// skipped, and the exit code is 3.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/report"
	"gippr/internal/runctx"
)

func main() {
	scaleFlag := flag.String("scale", "", "experiment scale: smoke, default or full (overrides GIPPR_SCALE)")
	only := flag.String("only", "", "comma-separated subset of: "+report.List())
	diffPair := flag.String("diff", "lru,gippr", "policy pair for the diff section: baseline,contender (registry names)")
	workers := flag.Int("workers", 0, "worker goroutines for the evaluation grid (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; on expiry the current section finishes and the rest are skipped (exit code 3)")
	telemetryPath := flag.String("telemetry", "", "write an event-level JSON run manifest over the headline policy roster to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar progress gauges and pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-report:", err)
		os.Exit(runctx.ExitUsage)
	}

	want, err := report.Parse(*only)
	if err != nil {
		// Typed registry lookup: a misspelled section is a usage error the
		// user must see, not a silently empty report.
		fmt.Fprintf(os.Stderr, "gippr-report: %v\n", err)
		os.Exit(runctx.ExitUsage)
	}

	pair := strings.Split(*diffPair, ",")
	if len(pair) != 2 {
		fmt.Fprintf(os.Stderr, "gippr-report: -diff wants two comma-separated policy names, got %q\n", *diffPair)
		os.Exit(runctx.ExitUsage)
	}
	diffA, errA := experiments.SpecFromRegistry(strings.TrimSpace(pair[0]))
	diffB, errB := experiments.SpecFromRegistry(strings.TrimSpace(pair[1]))
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gippr-report: -diff: %v\n", err)
			os.Exit(runctx.ExitUsage)
		}
	}

	ctx, stop := runctx.Setup(*deadline)
	defer stop()

	prog := runctx.NewProgress("gippr-report")
	stopDebug, err := runctx.MaybeServeDebug(*debugAddr, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-report:", err)
		os.Exit(runctx.ExitFailure)
	}
	defer stopDebug()

	lab := experiments.NewLab(scale).SetWorkers(*workers)
	fmt.Printf("gippr-report: scale=%s (%d records/phase, warm %.0f%%, %d workers)\n\n",
		scale.Name, scale.PhaseRecords, 100*scale.WarmFrac, lab.Workers)

	// ctx is checked only here, between sections: a section that starts
	// runs to completion at full width and prints complete numbers, so every
	// Lab call below that takes a context is given context.Background().
	section := func(name report.Section, f func()) {
		if !report.Selected(want, name) || ctx.Err() != nil {
			return
		}
		prog.SetPhase(string(name))
		start := time.Now()
		f()
		prog.Add(1)
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	section("streams", func() {
		fmt.Println("LLC-filtered stream sizes:")
		fmt.Printf("%-18s %8s %12s %14s\n", "workload", "phases", "llc records", "instructions")
		for _, s := range lab.StreamStats() {
			fmt.Printf("%-18s %8d %12d %14d\n", s.Workload, s.Phases, s.Records, s.Instrs)
		}
	})
	section("fig1", func() { fmt.Print(experiments.Fig1(lab).Format()) })
	section("fig2", func() {
		fmt.Println("Figure 2: LRU transition graph (k=16)")
		fmt.Print(experiments.Fig2().Text())
	})
	section("fig3", func() {
		fmt.Println("Figure 3: evolved GIPLR vector transition graph")
		fmt.Print(experiments.Fig3().Text())
	})
	section("fig4", func() { fmt.Print(experiments.Fig4(lab).Format()) })
	section("fig10", func() { fmt.Print(experiments.Fig10(lab).Format()) })
	section("fig11", func() { fmt.Print(experiments.Fig11(lab).Format()) })
	section("fig12", func() { fmt.Print(experiments.Fig12(lab).Format()) })
	section("fig13", func() { fmt.Print(experiments.Fig13(lab).Format()) })
	section("overhead", func() {
		s, err := experiments.Overhead(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gippr-report: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(s)
	})
	section("vectors", func() { fmt.Print(experiments.VectorsLearned(lab).Format()) })
	section("interpret", func() { fmt.Print(experiments.Interpret()) })
	section("characterize", func() {
		fmt.Print(experiments.FormatCharacterization(experiments.Characterize(lab)))
	})
	section("multicore", func() { fmt.Print(experiments.Multicore(lab).Format()) })
	section("assoc", func() { fmt.Print(experiments.AssocSweep(lab).Format()) })
	section("rripv", func() { fmt.Print(experiments.RRIPVSearch(lab).Format()) })
	section("bypass", func() { fmt.Print(experiments.Bypass(lab).Format()) })
	section("simpoint", func() {
		fmt.Print(experiments.FormatSimPointValidation(experiments.SimPointValidation(lab)))
	})
	section("sampling", func() {
		fmt.Print(experiments.Sampling(lab, experiments.SpecLRU, 1, 2, 3).Format())
	})
	section("lattice", func() {
		// The geometry-lattice section: every LRU (sets, ways) point around
		// the LLC under study plus tree-PLRU at the LLC's own shape, all
		// from one stream walk per workload phase.
		s, err := lab.LatticeReport(context.Background(), experiments.DefaultLatticeSpec(lab.Cfg), lab.Suite())
		if err != nil {
			fmt.Fprintf(os.Stderr, "gippr-report: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(s)
	})
	section("diff", func() {
		// The why section: one explanation per workload of diffB relative to
		// diffA, as compact JSON lines — the same versioned documents
		// /v1/explain streams, prose included (see DESIGN.md section 15).
		fmt.Printf("Diff: %s vs %s (why %s differs, per workload)\n", diffA.Label, diffB.Label, diffB.Label)
		expls, err := lab.DiffAll(context.Background(), diffA, diffB, lab.Suite())
		if err != nil {
			fmt.Fprintf(os.Stderr, "gippr-report: %v\n", err)
			os.Exit(runctx.ExitFailure)
		}
		for _, e := range expls {
			raw, err := json.Marshal(e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gippr-report: %v\n", err)
				os.Exit(runctx.ExitFailure)
			}
			fmt.Printf("%s\n", raw)
		}
	})

	// The manifest follows the sections' rule: it starts only if the
	// report was not stopped, and then runs to completion.
	if *telemetryPath != "" && ctx.Err() == nil {
		prog.SetPhase("telemetry")
		// The headline roster of the paper's comparison figures: baselines,
		// the strongest prior work, and the GIPPR family.
		specs := []experiments.Spec{
			experiments.SpecLRU, experiments.SpecPLRU, experiments.SpecDRRIP,
			experiments.SpecPDP, experiments.SpecSHiP, experiments.SpecWIGIPPR,
			experiments.SpecWI2DGIPPR, experiments.SpecWI4DGIPPR,
		}
		fp := fmt.Sprintf("gippr-report|v1|scale=%s|records=%d|warm=%.6f",
			scale.Name, scale.PhaseRecords, scale.WarmFrac)
		m, _ := lab.Manifest(context.Background(), "gippr-report", fp, specs) // Background never cancels
		if err := m.WriteFile(*telemetryPath); err != nil {
			fmt.Fprintln(os.Stderr, "gippr-report:", err)
			os.Exit(runctx.ExitFailure)
		}
		fmt.Fprintf(os.Stderr, "gippr-report: wrote telemetry manifest to %s (%d entries)\n",
			*telemetryPath, len(m.Entries))
	}

	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, runctx.Explain("gippr-report", err))
		os.Exit(runctx.ExitCode(err))
	}
}
