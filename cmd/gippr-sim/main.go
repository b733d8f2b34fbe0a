// Command gippr-sim runs trace-driven simulations of the paper's cache
// hierarchy: one or more workloads against one or more replacement
// policies, reporting per-workload MPKI, hit rates and window-model IPC.
//
// Usage:
//
//	gippr-sim [-workloads mcf_like,lbm_like|all] [-policies lru,drrip,4-dgippr|all]
//	          [-records N] [-warm frac] [-sample s] [-ipv "0 0 1 ..."] [-workers N]
//	          [-deadline dur] [-telemetry manifest.json] [-debug-addr host:port]
//
// The grid runs on the same memoized Lab engine the gippr-serve job daemon
// uses (experiments.Lab.Grid), so a served job over the same spec returns
// bit-identical cells. With -ipv, an additional GIPPR policy using the
// given vector is included. With -sample s, only a hashed 1-in-2^s subset
// of LLC sets is simulated and reported MPKI is the scaled estimate (hit
// rates describe the sampled sets; IPC is optimistic — skipped accesses are
// timed as hits); negative shifts or shifts that exceed the geometry are
// rejected up front with the usage exit code.
// With -telemetry, every grid cell is replayed with an event sink attached
// and a JSON run manifest (config fingerprint plus per-cell counters and
// insertion/promotion/reuse histograms) is written after the table. With
// -debug-addr, live progress gauges (cells done, rate) are served as expvar
// at /debug/vars alongside the pprof suite. SIGINT/SIGTERM or -deadline
// stop the grid gracefully: in-flight cells drain, no partial table is
// printed, and the exit code is 3. Bad inputs (unknown workload or policy,
// malformed IPV, invalid sample shift) exit with the usage code 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gippr/internal/experiments"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/policy"
	"gippr/internal/runctx"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

func main() {
	workloadsFlag := flag.String("workloads", "all", "comma-separated workload names, or 'all'")
	policiesFlag := flag.String("policies", "lru,plru,drrip,pdp,gippr,4-dgippr", "comma-separated policy names (see -list), or 'all'")
	records := flag.Int("records", 600_000, "memory references per workload phase (at least 1)")
	warm := flag.Float64("warm", 1.0/3, "fraction of each phase used for cache warm-up, in [0, 1)")
	sample := flag.Int("sample", 0, "set-sampling shift: simulate a hashed 1-in-2^s subset of LLC sets and scale misses up (0 = full fidelity)")
	ipvFlag := flag.String("ipv", "", "additional GIPPR vector to simulate, e.g. \"0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13\"")
	specFile := flag.String("spec", "", "file of custom workload definitions (see workload.ParseSpec); adds them to -workloads")
	list := flag.Bool("list", false, "list known workloads and policies, then exit")
	workers := flag.Int("workers", 0, "worker goroutines for the simulation grid (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; on expiry the grid drains and exits with code 3")
	telemetryPath := flag.String("telemetry", "", "write an event-level JSON run manifest (per-cell counters, insertion/promotion and reuse histograms) to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar progress gauges and pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	scale := experiments.CustomScale(*records, *warm)
	if err := scale.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gippr-sim:", err)
		os.Exit(runctx.ExitUsage)
	}

	ctx, stop := runctx.Setup(*deadline)
	defer stop()

	prog := runctx.NewProgress("gippr-sim")
	stopDebug, err := runctx.MaybeServeDebug(*debugAddr, prog)
	if err != nil {
		fatal(err)
	}
	defer stopDebug()

	if *list {
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		fmt.Println("policies: ", strings.Join(policyNames(), " "))
		return
	}

	custom := map[string]workload.Workload{}
	if *specFile != "" {
		text, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		parsed, err := workload.ParseSpec(string(text))
		if err != nil {
			fatal(err)
		}
		for _, w := range parsed {
			custom[w.Name] = w
		}
	}

	var wls []workload.Workload
	if *workloadsFlag == "all" {
		wls = workload.Suite()
		for _, w := range custom {
			wls = append(wls, w)
		}
	} else {
		for _, n := range strings.Split(*workloadsFlag, ",") {
			name := strings.TrimSpace(n)
			if w, ok := custom[name]; ok {
				wls = append(wls, w)
				continue
			}
			w, err := workload.ByName(name)
			if err != nil {
				fatal(err)
			}
			wls = append(wls, w)
		}
	}

	var specs []experiments.Spec
	names := strings.Split(*policiesFlag, ",")
	if *policiesFlag == "all" {
		names = policyNames()
	}
	for _, n := range names {
		s, err := experiments.SpecFromRegistry(strings.TrimSpace(n))
		if err != nil {
			fatal(err)
		}
		specs = append(specs, s)
	}
	if *ipvFlag != "" {
		v, err := ipv.Parse(*ipvFlag)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, experiments.SpecForIPV("GIPPR*", v))
	}

	// One lab per run: the grid engine builds each workload's LLC streams
	// once (capture happens before the L3 lookup, so the stream is
	// policy-independent), then replays every (policy, workload, phase)
	// cell from them, one task each. This is the same engine gippr-serve
	// jobs run on, so CLI rows and served cells are bit-identical by
	// construction, and at any -workers.
	lab := experiments.NewLab(scale).SetWorkers(*workers)
	shift, err := lab.Cfg.CheckSampleShift(*sample)
	if err != nil {
		fatal(err)
	}
	lab.Cfg.SampleShift = shift

	prog.SetTotal(uint64(len(wls) * len(specs)))
	cells, err := lab.Grid(ctx, specs, wls, func(experiments.GridCell) { prog.Add(1) })
	if err != nil {
		// A truncated grid would print zero rows for the cells that never
		// ran; report the interruption instead of a misleading table.
		fmt.Fprintln(os.Stderr, runctx.Explain("gippr-sim", err))
		os.Exit(runctx.ExitCode(err))
	}

	fmt.Printf("%-18s %-12s %10s %10s %10s %8s\n", "workload", "policy", "LLC MPKI", "LLC hit%", "IPC", "misses")
	for _, c := range cells {
		fmt.Printf("%-18s %-12s %10.3f %10.2f %10.3f %8d\n",
			c.Workload, c.Policy, c.MPKI, c.HitPct, c.IPC, c.Misses)
	}

	if *telemetryPath != "" {
		// Instrumented pass: the grid memo holds terminal numbers only, so
		// manifest entries replay each cell once more with sinks attached
		// (streams are already captured and shared, so the extra cost is
		// the replays, not the capture).
		m := &telemetry.Manifest{
			Tool: "gippr-sim",
			Fingerprint: fmt.Sprintf("gippr-sim|v1|records=%d|warm=%.6f|sample=%d|workloads=%s|policies=%s|ipv=%s",
				*records, *warm, shift, *workloadsFlag, *policiesFlag, *ipvFlag),
			Cache:    lab.Geometry(),
			Records:  *records,
			WarmFrac: *warm,
		}
		perWorkload := make([][]telemetry.Entry, len(wls))
		err := parallel.ForCtx(ctx, lab.Workers, len(wls), func(wi int) {
			perWorkload[wi] = lab.TelemetryEntries(specs, wls[wi])
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, runctx.Explain("gippr-sim", err))
			os.Exit(runctx.ExitCode(err))
		}
		for _, entries := range perWorkload {
			m.Entries = append(m.Entries, entries...)
		}
		if err := m.WriteFile(*telemetryPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gippr-sim: wrote telemetry manifest to %s (%d entries)\n",
			*telemetryPath, len(m.Entries))
	}
}

// policyNames returns the policy registry's names (kept behind a helper so
// main reads top-down).
func policyNames() []string { return policy.Names() }

// fatal reports a hard failure and exits with the typed-error exit-code
// convention: usage mistakes (unknown names, bad vectors or shifts) exit 2,
// everything else 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gippr-sim:", err)
	code := runctx.ExitCode(err)
	if code == 0 {
		code = runctx.ExitFailure
	}
	os.Exit(code)
}
