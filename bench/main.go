// Command bench is the repository's benchmark. It builds gippr-serve,
// drives the real daemon over its v1 HTTP API with one of four seeded
// workloads, checks every result, and prints the end-to-end metrics named
// in BENCHMARK.json as one JSON line. With --trace 1 it instead repeats
// the workload's requests in-process with a span around every call into a
// layer, and prints the per-layer metrics. See README.md.
//
// Usage, from the checkout root:
//
//	bash bench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1 [--out runs.jsonl] [--tag T]
//	bash bench/run.sh compare A.jsonl[@tag] B.jsonl[@tag]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	root     string
	seed     uint64
	seconds  time.Duration
	traced   bool
	records  int
	out      string
	tag      string
	bin      string
	catalog  catalogue
	log      io.Writer
	buildDir string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := fs.Uint64("seed", 1, "seed of every request choice")
	seconds := fs.Float64("seconds", 15, "about how long the timed phase takes on a quiet baseline machine; "+
		"it sizes the phase's fixed work (see README.md)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones, "+
		"spans written to .bench_build/spans-<workload>-<seed>.jsonl")
	out := fs.String("out", "", "append each run's full record to this JSON-lines file")
	tag := fs.String("tag", "", "label stored in the record (compare selects it with file@tag)")
	records := fs.Int("records", 0, "references per workload phase (0 = the daemon's default scale)")
	root := fs.String("root", ".", "checkout root, holding BENCHMARK.json and cmd/gippr-serve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	} else if workloadFuncs[*wl] == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %v or all)\n", *wl, workloadNames)
		return 2
	}
	if *seconds <= 0 || *records < 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --records non-negative")
		return 2
	}
	cat, err := loadCatalogue(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	// The load generator may use every CPU; it runs one client, on one
	// connection, or on two for store_hits' open loop.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()

	o := options{
		root: *root, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace != 0, records: *records, out: *out, tag: *tag,
		catalog: cat, log: stderr, buildDir: filepath.Join(*root, ".bench_build"),
	}
	if o.bin, err = buildDaemon(ctx, o.root, filepath.Join(o.buildDir, "bin")); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		rec, err := benchOne(ctx, o, name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// jobMetric is the end-to-end job-time metric: the median adjusted job
// time.
const jobMetric = "job_p50_ms"

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result, as appended to --out.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Tag       string            `json:"tag,omitempty"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Timings   map[string]timing `json:"timings"`
	Detail    map[string]any    `json:"detail,omitempty"`
}

// benchOne runs one workload in a fresh run directory and assembles its
// record. An error means the run could not be measured at all.
func benchOne(ctx context.Context, o options, name string) (*record, error) {
	start := time.Now()
	if err := os.MkdirAll(filepath.Join(o.buildDir, "runs"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(o.buildDir, "runs"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		ctx: ctx, workload: name, bin: o.bin, dir: dir, seed: o.seed, seconds: o.seconds,
		records: o.records, traced: o.traced, log: o.log,
		series: map[string][]float64{}, serve: map[string][]float64{}, extra: map[string]any{},
	}
	if err := workloadFuncs[name](r); err != nil {
		return nil, err
	}
	if r.timedJobs == 0 || math.IsNaN(r.jobP50) {
		return nil, errors.New("no job completed in the timed phase")
	}
	rec := &record{
		Workload: name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.traced, Tag: o.tag,
		Stamp: newStamp(o.root, o.seed, o.records), Timings: map[string]timing{}, Detail: r.extra,
	}
	for k, xs := range r.series {
		rec.Timings[k] = summarise(xs, "ms")
	}
	rec.Timings["setup"+adjSuffix] = summarise(r.setup, "s")
	rec.Timings["setup"] = summarise(r.setupWall, "s")
	rec.Timings["reference"] = summarise(r.refs, "ms")

	e2e := map[string]float64{
		"setup_s":          median(r.setup),
		jobMetric:          r.jobP50,
		"rss_peak_mb":      r.rssMB,
		"alloc_mb_per_job": r.allocMB / float64(r.timedJobs),
	}
	layer := map[string]float64{
		"runtime.gc_cpu_frac":       r.memEnd.GCCPUFraction,
		"runtime.num_gc_per_job":    float64(r.numGC) / float64(r.timedJobs),
		"runtime.heap_inuse_mb_end": float64(r.memEnd.HeapInuse) / (1 << 20),
		"loadgen.late_p99_ms":       quantile(r.late, 0.99),
	}
	for k, xs := range r.serve {
		layer[k] = median(xs)
	}
	defs, values := o.catalog.EndToEnd, e2e
	if o.traced {
		spans := filepath.Join(o.buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, o.seed))
		if err := traceRun(r, spans, layer); err != nil {
			return nil, err
		}
		defs, values = o.catalog.PerLayer, layer
		rec.Detail["end_to_end"] = e2e
	} else {
		rec.Detail["layers"] = layer
	}
	rec.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	rec.Attempted, rec.Failed, rec.Failures = r.attempted, r.failed, r.failures
	rec.Correct = r.failed == 0
	rec.Detail["run_wall_s"] = time.Since(start).Seconds()
	return rec, nil
}

// traceRun is the traced mode's in-process half: it repeats the served
// requests and runs the layer probes under one root span, checks the
// recomputed results against the served ones, and adds the per-layer
// metrics to layer. A mismatch counts as a failed job of the run.
func traceRun(r *run, spansPath string, layer map[string]float64) error {
	t := newTracer()
	var re *reenactor
	var err error
	t.do(nil, spanRoot, "", func(root *span) {
		t.do(root, "resultstore.open", "", func(*span) {
			re, err = newReenactor(r.ctx, t, root, r.records, filepath.Join(r.dir, "traced-store"))
		})
		if err != nil {
			return
		}
		if err = re.reenact(r); err != nil {
			return
		}
		re.lab = nil // release the re-enactment's streams before the probes
		t.do(root, "runtime.gc", "", func(*span) { runtime.GC() })
		err = probeLayers(r.ctx, t, root, r.records, layer)
	})
	if err != nil {
		return err
	}
	for _, m := range re.mismatches {
		r.fail(errors.New("traced result differs from the served one: " + m))
	}
	layer["resultstore.put_ms"] = median(re.puts)
	layer["resultstore.get_ms"] = median(re.gets)
	layer["resultstore.entry_kb"] = mean(re.entryKB)
	layer["serve.result_encode_ms"] = median(re.encodes)
	self, coverage := layerSelf(t.spans)
	layer["trace.layer_coverage"] = coverage
	selfS := map[string]float64{}
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	r.extra["layer_self_s"] = selfS
	r.extra["served_total_s"] = re.served.Seconds()
	r.extra["traced_total_s"] = re.traced.Seconds()
	fmt.Fprint(r.log, selfTable(self, coverage))
	fmt.Fprintf(r.log, "re-enacted requests: served %.3f s, in-process %.3f s (wall-clock); the gap is the daemon "+
		"and HTTP overhead less the tracing overhead, plus the host's drift between the two\n",
		re.served.Seconds(), re.traced.Seconds())
	if coverage < 0.9 {
		fmt.Fprintf(r.log, "bench: %s: layer self times cover only %.1f%% of the traced wall time\n", r.workload, 100*coverage)
	}
	return writeSpans(spansPath, t.spans)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// catalogue is BENCHMARK.json: the workloads and the metric names, units,
// directions and bounds every run reports against.
type catalogue struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// endToEnd returns the end-to-end metric with the given name, or nil.
func (c catalogue) endToEnd(name string) *metricDef {
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Name == name {
			return &c.EndToEnd[i]
		}
	}
	return nil
}

func loadCatalogue(path string) (catalogue, error) {
	var c catalogue
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range c.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			return c, fmt.Errorf("%s lists unknown workload %q", path, w.Name)
		}
	}
	return c, nil
}
