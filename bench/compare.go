package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain prints, for every (metric, workload) two sets of runs share,
// each side's median and quartiles, the run counts, the ratio of the
// medians with its base, and a verdict. It exits 1 when any verdict is
// worse or any side's failure share rose.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-root dir] A.jsonl[@tag] B.jsonl[@tag]")
		return 2
	}
	cat, err := loadCatalogue(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rows, worse := compareRuns(cat, a, b)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA median [q1 q3]\tB n\tB median [q1 q3]\tB/A (base A)\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, r)
	}
	tw.Flush() //nolint:errcheck // stdout
	if worse {
		return 1
	}
	return 0
}

// compareRuns builds the comparison table, one row per (workload, metric)
// present on both sides plus each workload's failure share, and reports
// whether anything got worse.
func compareRuns(cat catalogue, a, b []record) ([]string, bool) {
	var rows []string
	worse := false
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, w := compareWorkload(cat, runsOf(a, wl, traced), runsOf(b, wl, traced), wl, traced)
			rows = append(rows, r...)
			worse = worse || w
		}
	}
	return rows, worse
}

// setupFloorS is setup_s's absolute bound: however short a set-up, it may
// grow by 0.05 s before it counts as worse.
const setupFloorS = 0.05

// compareWorkload compares one workload's untraced runs on the end-to-end
// metrics and on every timing series behind them, or its traced runs on
// the per-layer metrics (which have no bound, so no verdict).
func compareWorkload(cat catalogue, ra, rb []record, wl string, traced bool) ([]string, bool) {
	if len(ra) == 0 || len(rb) == 0 {
		return nil, false
	}
	var rows []string
	worse := false
	row := func(name, unit string, va, vb []float64, higher bool, bound *float64) {
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		ma, mb := median(va), median(vb)
		v := "-"
		if bound != nil {
			b := *bound
			if name == "setup_s" {
				b = max(b, setupFloorS/ma)
			}
			v = verdict(va, vb, higher, b)
		}
		if v == verdictWorse {
			worse = true
		}
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%d\t%s\t%d\t%s\t%.4f (base %s)\t%s",
			wl, name, unit, len(va), spread(va), len(vb), spread(vb), mb/ma, num(ma), v))
	}
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
		wl += " (traced)"
	}
	for _, d := range defs {
		row(d.Name, d.Unit, values(ra, d.Name), values(rb, d.Name), d.Better == "higher", d.Bound)
	}
	// Each kind of job, and its tail, is judged on its own adjusted series
	// under the job metric's bound, so no shared figure can hide one
	// engine's change. Wall-clock series print without a verdict: they
	// move with the host.
	if job := cat.endToEnd(jobMetric); !traced && job != nil {
		for _, s := range seriesOf(ra, rb) {
			var bound *float64
			if strings.HasSuffix(s, adjSuffix) {
				bound = job.Bound
			}
			unit := ra[0].Timings[s].Unit
			row(s+".p50", unit, p50s(ra, s), p50s(rb, s), false, bound)
			if pct, ok := sharedTail(ra, rb, s); ok {
				row(fmt.Sprintf("%s.p%g", s, pct), unit, tails(ra, s), tails(rb, s), false, bound)
			}
		}
	}
	// A failure share may not rise at all: its bound is zero, absolute.
	fa, fb := failShare(ra), failShare(rb)
	v := verdictUnchanged
	if fb > fa {
		v = verdictWorse
		worse = true
	}
	rows = append(rows, fmt.Sprintf("%s\tfail_frac\t1\t%d\t%s\t%d\t%s\t-\t%s",
		wl, len(ra), num(fa), len(rb), num(fb), v))
	return rows, worse
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s %s]", num(median(xs)), num(q1), num(q3))
}

func num(x float64) string { return fmt.Sprintf("%.5g", x) }

// runsOf returns the workload's traced or untraced runs in seed order, so
// two sets run over the same seeds pair run for run.
func runsOf(rs []record, wl string, traced bool) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == wl && r.Trace == traced {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && !math.IsNaN(m.Value) {
			out = append(out, m.Value)
		}
	}
	return out
}

// seriesOf returns the job and reference-kernel series every run of both
// sides recorded, in order; set-up has its own metric.
func seriesOf(ra, rb []record) []string {
	count := map[string]int{}
	for _, r := range append(slices.Clip(ra), rb...) {
		for s := range r.Timings {
			count[s]++
		}
	}
	var out []string
	for _, s := range sortedKeys(count) {
		if !strings.HasPrefix(s, "setup") && count[s] == len(ra)+len(rb) {
			out = append(out, s)
		}
	}
	return out
}

func p50s(rs []record, series string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Timings[series].P50
	}
	return out
}

func tails(rs []record, series string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Timings[series].Tail
	}
	return out
}

// sharedTail returns the tail percentile a series reports in every run of
// both sides; a series whose sample count moves it has none, and one whose
// tail is its median needs no second row.
func sharedTail(ra, rb []record, series string) (float64, bool) {
	pct := ra[0].Timings[series].TailPct
	for _, r := range append(slices.Clip(ra), rb...) {
		if r.Timings[series].TailPct != pct {
			return 0, false
		}
	}
	return pct, pct > 50
}

func failShare(rs []record) float64 {
	var att, fail int
	for _, r := range rs {
		att += r.Attempted
		fail += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// loadRuns reads run records from a JSON-lines file written by --out, or
// from a JSON document whose "runs" array holds them (the committed
// results). A "@tag" suffix keeps only the runs stored with that tag.
func loadRuns(spec string) ([]record, error) {
	path, tag, tagged := strings.Cut(spec, "@")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []record
	var doc struct {
		Runs []record `json:"runs"`
	}
	if json.Unmarshal(b, &doc) == nil && doc.Runs != nil {
		all = doc.Runs
	} else {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			all = append(all, r)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	var out []record
	for _, r := range all {
		if !tagged || r.Tag == tag {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", spec)
	}
	return out, nil
}
