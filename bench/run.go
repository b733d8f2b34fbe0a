package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// run is one benchmark run of one workload: its configuration, and what
// the served phase measured.
type run struct {
	ctx      context.Context
	workload string
	bin      string // the daemon binary
	dir      string // run directory; every daemon's files live under it
	seed     uint64
	seconds  time.Duration
	records  int  // references per phase; 0 runs the daemon at -scale default
	traced   bool // fetch job statuses for the serve.* breakdown
	log      io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	setup     []float64            // set-up samples, adjusted s
	setupWall []float64            // the same, wall-clock s
	jobP50    float64              // the job_p50_ms figure, adjusted ms
	series    map[string][]float64 // job series for the result file, wall-clock or (adjSuffix) adjusted ms
	refs      []float64            // reference kernel timings, ms
	lastRef   time.Duration        // the latest of them in this phase
	timedJobs int                  // jobs completed in the timed phase, for per-job costs
	rssMB     float64              // peak resident set of the measured daemon
	allocMB   float64              // daemon allocation over the timed phase
	memEnd    memStats             // daemon memstats at the end of the timed phase
	numGC     uint32               // GC cycles over the timed phase
	late      []float64            // load-generator lateness samples, ms
	serve     map[string][]float64 // per-job serve.* breakdown samples
	kept      []served             // requests kept for the traced re-enactment
	extra     map[string]any       // workload-specific detail for the result file
}

// served is one answered request, kept so the traced run can recompute it
// and compare bit for bit.
type served struct {
	Req     jobRequest
	Result  []byte
	Latency time.Duration
}

// jobRequest is the v1 submission body.
type jobRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	IPV       string   `json:"ipv,omitempty"`
	Exact     bool     `json:"exact,omitempty"`
	Sweep     *lattice `json:"sweep,omitempty"`
	Explain   *pair    `json:"explain,omitempty"`
}

type lattice struct {
	MinSets int        `json:"min_sets"`
	MaxSets int        `json:"max_sets"`
	MaxWays int        `json:"max_ways"`
	PLRU    []geometry `json:"plru,omitempty"`
}

type geometry struct {
	Sets int `json:"sets"`
	Ways int `json:"ways"`
}

type pair struct {
	PolicyA string `json:"policy_a"`
	PolicyB string `json:"policy_b"`
}

// defaultPolicies is the daemon's policy set for a grid request that names
// none (gippr-sim's -policies default).
var defaultPolicies = []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"}

// ipvLabel is the cell label the daemon gives a request's explicit IPV.
const ipvLabel = "GIPPR*"

func (q jobRequest) path() string {
	if q.Explain != nil {
		return "/v1/explain"
	}
	return "/v1/jobs"
}

// points is the number of lattice points one workload contributes: every
// power-of-two set count in range times every associativity, plus the
// tree-PLRU geometries.
func (l lattice) points() int {
	n := 0
	for s := l.MinSets; s <= l.MaxSets; s *= 2 {
		n++
	}
	return n*l.MaxWays + len(l.PLRU)
}

// items is how many cells (or explanations) the request's result carries.
func (q jobRequest) items(suite int) int {
	wls := len(q.Workloads)
	if wls == 0 {
		wls = suite
	}
	switch {
	case q.Explain != nil:
		return wls
	case q.Sweep != nil:
		return wls * q.Sweep.points()
	}
	specs := len(q.Policies)
	if specs == 0 && !q.Exact {
		specs = len(defaultPolicies)
	}
	if q.IPV != "" {
		specs++
	}
	return wls * specs
}

// manifest is the part of a result document the checks read.
type manifest struct {
	ID           string            `json:"id"`
	Fingerprint  string            `json:"fingerprint"`
	Cells        []json.RawMessage `json:"cells"`
	Explanations []json.RawMessage `json:"explanations"`
}

// checkCount verifies a result carries the cells or explanations its
// request asked for.
func checkCount(q jobRequest, result []byte, suite int) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(result, &m); err != nil {
		return m, fmt.Errorf("decode result: %w", err)
	}
	got := len(m.Cells)
	if q.Explain != nil {
		got = len(m.Explanations)
	}
	if want := q.items(suite); got != want {
		return m, fmt.Errorf("result of %s carries %d items, want %d", m.Fingerprint, got, want)
	}
	return m, nil
}

func (r *run) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(r.seed, stream)) }

// fail counts one failed job.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	fmt.Fprintf(r.log, "bench: %s: job failed: %v\n", r.workload, err)
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// adjSuffix names the series of a kind's adjusted job times.
const adjSuffix = "_adj"

// record adds one job's wall time to its kind's series, and the time
// adjusted by ref, the reference time across the job, to the kind's
// adjusted series; both in ms.
func (r *run) record(kind string, d, ref time.Duration) {
	r.mu.Lock()
	r.series[kind] = append(r.series[kind], ms(d))
	r.series[kind+adjSuffix] = append(r.series[kind+adjSuffix], ms(adjust(d, ref)))
	r.mu.Unlock()
}

// addSetup records one set-up's wall time, adjusted by ref, the reference
// time across it.
func (r *run) addSetup(d, ref time.Duration) {
	r.setupWall = append(r.setupWall, d.Seconds())
	r.setup = append(r.setup, adjust(d, ref).Seconds())
}

// calibrate times the reference kernel and returns the mean of this timing
// and the previous one: the host's speed across the work done between
// them. The first call of a run returns its own timing. Callers run it
// while the daemon is idle.
func (r *run) calibrate() time.Duration {
	d := timeKernel()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs = append(r.refs, ms(d))
	prev := r.lastRef
	if prev == 0 {
		prev = d
	}
	r.lastRef = d
	return (prev + d) / 2
}

// observe records a finished job's serve.* breakdown (traced runs only)
// and the load generator's lateness in sending it.
func (r *run) observe(jr jobRun, late time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.late = append(r.late, ms(late))
	st := jr.Status
	if st == nil || st.Started == nil || st.Finished == nil {
		return
	}
	add := func(k string, v float64) { r.serve[k] = append(r.serve[k], v) }
	add("serve.submit_ms", ms(jr.Accepted))
	add("serve.queue_wait_ms", ms(st.Started.Sub(st.Created)))
	add("serve.exec_s", st.Finished.Sub(*st.Started).Seconds())
	add("serve.deliver_ms", ms(jr.Sent.Add(jr.Trailer).Sub(*st.Finished)))
	add("serve.result_ms", ms(jr.Done-jr.Trailer))
}

// keep retains a served request for the traced re-enactment: the first
// limit of each kind.
func (r *run) keep(q jobRequest, jr jobRun, limit int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.kept {
		if kindOf(s.Req) == kindOf(q) {
			n++
		}
	}
	if n < limit {
		r.kept = append(r.kept, served{Req: q, Result: jr.Result, Latency: jr.Done})
	}
}

func kindOf(q jobRequest) string {
	switch {
	case q.Explain != nil:
		return "explain"
	case q.Sweep != nil:
		return "sweep"
	}
	return "grid"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newDir makes a fresh directory for one daemon lifetime (or, for
// cold_grid, one run of restarts) under the run directory.
func (r *run) newDir(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// setUp starts reps daemons one after another, each in a fresh directory,
// and runs prep against each; set-up time is exec until prep returns. The
// reference kernel runs before the first start and after each prep, while
// the daemon is idle. Every daemon but the last is stopped; the last is
// handed to the timed phase. Fresh directories make every repetition the
// same cold set-up.
func (r *run) setUp(reps int, conns int, prep func(c *client) error) (*daemon, *client, error) {
	r.calibrate()
	for i := 0; ; i++ {
		dir, err := r.newDir(fmt.Sprintf("daemon-%d", i))
		if err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(r.ctx, r.bin, dir, r.records)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d.addr, conns)
		if err := prep(c); err != nil {
			c.close()
			d.stop() //nolint:errcheck // the set-up failure is the error to report
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(d.start)
		r.addSetup(wall, r.calibrate())
		if i == reps-1 {
			return d, c, nil
		}
		c.close()
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// runJob runs one job and counts it; a failure is recorded and returned.
func (r *run) runJob(c *client, q jobRequest) (jobRun, error) {
	r.attempt()
	body, err := json.Marshal(q)
	if err != nil {
		return jobRun{}, err
	}
	jr, err := c.job(r.ctx, q.path(), body, r.traced)
	if err != nil {
		err = fmt.Errorf("%s %s: %w", q.path(), body, err)
		r.fail(err)
	}
	return jr, err
}

// closedLoop is one client: it sends n requests, each only after the
// previous one completed, and stops early once until, when not zero, has
// passed. The reference kernel runs before the first request and after
// each one, while the daemon is idle. handle sees each successful job with
// the reference time across it, and returns an error for a wrong result.
// closedLoop returns the number of jobs that succeeded.
func (r *run) closedLoop(c *client, next func() jobRequest, n int, until time.Time,
	handle func(q jobRequest, jr jobRun, ref time.Duration) error) int {
	done := 0
	r.calibrate()
	for sent := 0; sent < n && r.ctx.Err() == nil && (until.IsZero() || time.Now().Before(until)); sent++ {
		free := time.Now()
		q := next()
		jr, err := r.runJob(c, q)
		ref := r.calibrate()
		if err == nil {
			if err := handle(q, jr, ref); err != nil {
				r.fail(err)
			} else {
				r.observe(jr, jr.Sent.Sub(free))
				done++
			}
		}
	}
	return done
}

// openLoop sends requests on a fixed schedule at rate per second for
// length, over conns connections (so at most conns are in flight). A
// request that finds every connection busy waits, and its latency is timed
// from when it was due, so a stall shows in every request it delays. It
// returns the latencies of the successful jobs.
func (r *run) openLoop(c *client, conns int, rate float64, length time.Duration, next func(i int) jobRequest,
	handle func(q jobRequest, jr jobRun) error) []time.Duration {
	start := time.Now()
	until := start.Add(length)
	var idx atomic.Int64
	var mu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.ctx.Err() == nil {
				i := int(idx.Add(1) - 1)
				due := dueAt(i, rate)
				if start.Add(due).After(until) {
					return
				}
				free := time.Since(start)
				if wait := due - free; wait > 0 {
					time.Sleep(wait)
				}
				q := next(i)
				jr, err := r.runJob(c, q)
				if err != nil {
					continue
				}
				if err := handle(q, jr); err != nil {
					r.fail(err)
					continue
				}
				lat := jr.Sent.Add(jr.Done).Sub(start.Add(due))
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
				r.observe(jr, lateness(due, free, jr.Sent.Sub(start)))
			}
		}()
	}
	wg.Wait()
	return lats
}

// measureDaemon reads the measured daemon's peak RSS, and its allocation
// and GC counts since before, at the end of the timed phase.
func (r *run) measureDaemon(d *daemon, c *client, before memStats) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	after, err := c.memStats(r.ctx)
	if err != nil {
		return err
	}
	r.rssMB = rss
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	r.numGC = after.NumGC - before.NumGC
	r.memEnd = after
	return nil
}

// distinctIPVs returns a generator of seeded 16-way insertion/promotion
// vectors, none repeated within the run: k+1 = 17 entries, each in 0..15.
func (r *run) distinctIPVs(stream uint64) func() string {
	rng := r.rng(stream)
	seen := map[string]bool{}
	var mu sync.Mutex
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		for {
			parts := make([]string, 17)
			for i := range parts {
				parts[i] = fmt.Sprint(rng.IntN(16))
			}
			v := "[ " + strings.Join(parts, " ") + " ]"
			if !seen[v] {
				seen[v] = true
				return v
			}
		}
	}
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
