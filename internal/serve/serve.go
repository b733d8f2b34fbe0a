// Package serve is the simulation-as-a-service layer: a long-lived job
// daemon that evaluates {workloads x policies x sampling} grids over one
// shared, memoized experiments.Lab behind an HTTP/JSON v1 API
// (cmd/gippr-serve is the binary).
//
// Architecture: submissions validate against the typed-sentinel error
// vocabulary (bad vectors, unknown policies/workloads, bad sampling shifts
// all fail fast with 400), then enter a bounded FIFO queue served by a
// fixed worker pool — one worker runs one job at a time, and each job fans
// its grid out over the Lab's own worker pool. A full queue rejects with
// ErrQueueFull (HTTP 429 + Retry-After) rather than blocking the client;
// a draining server rejects with ErrDraining (503). Because every job runs
// through the same Lab engine as the gippr-sim CLI, a served cell is
// bit-identical to the CLI's row for the same spec, and repeated jobs over
// overlapping specs are memo reads, not replays.
//
// Lifecycle: Drain (SIGTERM in the daemon) stops intake, lets in-flight
// jobs finish, marks still-queued jobs rejected, and returns when the pool
// is idle; Close force-cancels in-flight jobs through their contexts for
// the case where a drain deadline expires.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/resultstore"
	"gippr/internal/runctx"
	"gippr/internal/stackdist"
	"gippr/internal/telemetry"
	"gippr/internal/workload"
)

// Service-level sentinels, mapped to HTTP statuses by StatusOf.
var (
	// ErrQueueFull rejects a submission when the bounded queue has no free
	// slot (HTTP 429 + Retry-After; the client should back off and retry).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining rejects a submission during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrNotFound reports an unknown job id (HTTP 404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrNotDone reports a result request for a job that has not finished
	// successfully (HTTP 409).
	ErrNotDone = errors.New("serve: job has not completed")
	// ErrBadRequest rejects a malformed request field (a negative or
	// non-finite timeout, for example) at submission time (HTTP 400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrPanic marks a job whose grid body panicked. The job fails — the
	// daemon does not — with the worker stack captured in the job error,
	// and the result endpoint reports 500 (a server bug, not client fault).
	ErrPanic = errors.New("serve: job panicked")
)

// maxNameList bounds the workload and policy lists a single request may
// carry. The full suite is 29 workloads and the registry under 20 policies,
// so the cap only rejects hostile or corrupted requests before resolve
// loops over them.
const maxNameList = 1024

// Config sizes the daemon.
type Config struct {
	// Scale fixes the per-phase record budget and warm-up fraction every
	// job runs at (jobs share one Lab, so this is server-wide).
	Scale experiments.Scale
	// Workers is the job worker pool size: how many jobs run concurrently.
	// Values below 1 mean 1.
	Workers int
	// QueueDepth bounds the number of jobs waiting behind the running
	// ones; a submission beyond it gets ErrQueueFull. Values below 1
	// mean 1.
	QueueDepth int
	// LabWorkers is each job's grid fan-out width (0 = GOMAXPROCS).
	LabWorkers int
	// DefaultTimeout is the per-job deadline applied when a request does
	// not set one (0 = none). MaxTimeout caps request-supplied deadlines
	// (0 = uncapped).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// Store, when non-nil, is the persistent content-addressed result store
	// the server reads through: a job whose fingerprint is already stored
	// is served from disk (queued -> running -> done with the stored cells,
	// zero grid recompute), and every freshly computed result is persisted
	// on completion. Nil keeps today's in-memory-only behavior.
	Store *resultstore.Store
	// MaxBodyBytes caps a job-submission request body; oversized bodies
	// get HTTP 413. Values <= 0 mean the 1 MiB default.
	MaxBodyBytes int64
}

// Server is the job daemon: a bounded queue, a worker pool, and the shared
// Lab (plus its per-shift sampling views). It is safe for concurrent use by
// any number of HTTP handler goroutines.
type Server struct {
	cfg  Config
	base *experiments.Lab

	viewMu sync.Mutex
	views  map[uint]*experiments.Lab // sampling shift -> lab view sharing base streams

	store *resultstore.Store // nil = in-memory only

	mu       sync.Mutex // guards jobs, order, draining, and queue sends
	jobs     map[string]*Job
	order    []string
	queue    chan *Job
	draining bool

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	metrics *Metrics
	prog    *runctx.Progress

	// runGrid is the grid-job body (runGridReal in production) and the one
	// execution seam: tests substitute blocking, panicking, or gated stubs
	// to drive the queue, the panic boundary, and drain deterministically.
	runGrid func(ctx context.Context, lab *experiments.Lab, job *Job) error
}

// New builds a server and starts its worker pool. Call Drain (and, if the
// drain deadline expires, Close) to stop it.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Scale.PhaseRecords == 0 {
		cfg.Scale = experiments.ScaleFromEnv()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      cfg.Store,
		base:       experiments.NewLab(cfg.Scale).SetWorkers(cfg.LabWorkers),
		views:      make(map[uint]*experiments.Lab),
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		metrics:    newMetrics(),
		prog:       runctx.NewProgress("gippr-serve"),
	}
	s.runGrid = s.runGridReal
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Lab returns the server's base (full-fidelity) lab — the one the
// equivalence tests compare served results against.
func (s *Server) Lab() *experiments.Lab { return s.base }

// labFor returns the lab view for a sampling shift: the base lab at shift
// 0, else a per-shift view sharing the base's captured streams but with its
// own result memo (sampled and full-fidelity results must never mix).
func (s *Server) labFor(shift uint) *experiments.Lab {
	if shift == 0 {
		return s.base
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if l, ok := s.views[shift]; ok {
		return l
	}
	l := s.base.WithSampling(shift)
	s.views[shift] = l
	return l
}

// resolve validates a request into its immutable execution plan. Every
// failure wraps one of the typed sentinels, so the HTTP layer can map it to
// 400 with errors.Is.
func (s *Server) resolve(req JobRequest) (*Job, error) {
	if len(req.Workloads) > maxNameList || len(req.Policies) > maxNameList {
		return nil, fmt.Errorf("%w: request lists %d workloads and %d policies (max %d each)",
			ErrBadRequest, len(req.Workloads), len(req.Policies), maxNameList)
	}
	var wls []workload.Workload
	names := req.Workloads
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		wls = workload.Suite()
	} else {
		for _, n := range names {
			w, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			wls = append(wls, w)
		}
	}

	var sweep *experiments.LatticeSpec
	var specs []experiments.Spec
	var ipvCanon string
	var explainJob bool
	if req.Explain != nil {
		// Explain jobs are a third engine: the policy pair is the whole
		// policy surface, and the decomposition's exact integer identity
		// only holds at full fidelity, so nothing else may compose with it.
		if req.Sweep != nil {
			return nil, fmt.Errorf("%w: a job is a grid, a sweep, or an explain — not two at once", ErrBadRequest)
		}
		if len(req.Policies) > 0 || req.IPV != "" || req.Exact {
			return nil, fmt.Errorf("%w: an explain job takes no policies, ipv, or exact flag", ErrBadRequest)
		}
		if req.Sample != 0 {
			return nil, fmt.Errorf("%w: the explain decomposition is exact only at full fidelity; sample must be 0", ErrBadRequest)
		}
		a, err := experiments.SpecFromRegistry(strings.TrimSpace(req.Explain.PolicyA))
		if err != nil {
			return nil, err
		}
		b, err := experiments.SpecFromRegistry(strings.TrimSpace(req.Explain.PolicyB))
		if err != nil {
			return nil, err
		}
		specs = []experiments.Spec{a, b}
		explainJob = true
	} else if req.Sweep != nil {
		// One-pass sweep jobs are a different engine: the lattice spec IS
		// the policy set, and the engine is exact-by-construction at full
		// fidelity, so policy/IPV/sampling fields cannot compose with it.
		if len(req.Policies) > 0 || req.IPV != "" || req.Exact {
			return nil, fmt.Errorf("%w: a sweep job takes no policies, ipv, or exact flag", ErrBadRequest)
		}
		if req.Sample != 0 {
			return nil, fmt.Errorf("%w: the one-pass sweep runs at full fidelity; sample must be 0", ErrBadRequest)
		}
		sp := experiments.LatticeSpec{
			MinSets: req.Sweep.MinSets,
			MaxSets: req.Sweep.MaxSets,
			MaxWays: req.Sweep.MaxWays,
			PLRU:    append([]stackdist.Geometry(nil), req.Sweep.PLRU...),
		}
		// Geometry validation happens here, at submission, wrapping
		// cache.ErrBadGeometry -> HTTP 400 — not at replay time.
		if err := sp.Validate(s.base.Cfg.BlockBytes); err != nil {
			return nil, err
		}
		sweep = &sp
	} else {
		polNames := req.Policies
		if len(polNames) == 0 && !req.Exact {
			polNames = defaultPolicies
		}
		for _, n := range polNames {
			sp, err := experiments.SpecFromRegistry(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
		if req.IPV != "" {
			v, err := ipv.Parse(req.IPV)
			if err != nil {
				return nil, err
			}
			// The canonical form (not the raw request string) feeds the result
			// fingerprint, so "0,1,2" and "[ 0 1 2 ]" collide to one store key.
			ipvCanon = v.String()
			specs = append(specs, experiments.SpecForIPV("GIPPR*", v))
		}
		if len(specs) == 0 {
			// Only reachable with Exact set: an exact request must name at
			// least one policy (or carry an IPV) — there is no default to fall
			// back to.
			return nil, fmt.Errorf("%w: exact request names no policies", ErrBadRequest)
		}
	}

	shift, err := s.base.Cfg.CheckSampleShift(req.Sample)
	if err != nil {
		return nil, err
	}

	if math.IsNaN(req.TimeoutSec) || math.IsInf(req.TimeoutSec, 0) {
		return nil, fmt.Errorf("%w: timeout_sec must be finite", ErrBadRequest)
	}
	if req.TimeoutSec < 0 {
		return nil, fmt.Errorf("%w: timeout_sec %v is negative", ErrBadRequest, req.TimeoutSec)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	return &Job{
		ID:       newID(),
		Req:      req,
		specs:    specs,
		wls:      wls,
		shift:    shift,
		timeout:  timeout,
		ipvCanon: ipvCanon,
		sweep:    sweep,
		explain:  explainJob,
		metrics:  s.metrics,
		state:    StateQueued,
		created:  time.Now(),
		updated:  make(chan struct{}),
	}, nil
}

// Submit validates a request and enqueues it. It never blocks: with the
// queue full it fails with ErrQueueFull, while draining with ErrDraining;
// validation failures wrap the typed input sentinels.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	job, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
	default:
		s.metrics.rejectedFull.Add(1)
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.metrics.submitted.Add(1)
	return job, nil
}

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth returns the number of queued (not yet started) jobs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// worker is one pool goroutine: it serves jobs until the queue closes at
// drain time, rejecting any job it dequeues after draining began (those
// were queued, never started — the drain contract).
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			job.finish(StateRejected, ErrDraining)
			continue
		}
		s.run(job)
	}
}

// run executes one job with its deadline and cancellation plumbing: compute
// the fingerprint up front, serve a store hit from disk, otherwise run the
// grid and persist the settled result (read-through / write-behind).
func (s *Server) run(job *Job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if job.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, job.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	// setRunning is the atomic check-and-transition: a job cancelled via
	// DELETE while queued is terminal and must stay that way, so a refusal
	// means this worker never touches the job.
	if !job.setRunning(cancel) {
		return
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	fp := s.fingerprint(job)
	if s.serveFromStore(job, fp) {
		return
	}

	err := s.execute(ctx, job)
	switch {
	case err == nil:
		// Persist before the done transition becomes observable: a client
		// that polls the job to done and immediately inspects the store (or
		// a drain that returns once in-flight jobs settle) must find the
		// entry on disk, never a window where the job is done but the
		// write-behind is still racing.
		s.persist(job, fp)
		job.finish(StateDone, nil)
	case runctx.Cancelled(err):
		job.finish(StateCancelled, err)
	default:
		job.finish(StateFailed, err)
	}
}

// execute runs one job on the engine its kind selects: the policy-diff
// engine, the one-pass sweep, or, for grid jobs, runGrid. It is the panic
// boundary of the worker pool: a panicking grid run — a policy bug, a bad
// vector deep in the replay kernel — fails only this job, with the panic
// value and goroutine stack captured in the job error (following the
// parallel.Panic convention, whose worker stack is preserved when the
// panic crossed the fan-out), never the daemon.
func (s *Server) execute(ctx context.Context, job *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panicked.Add(1)
			if p, ok := r.(*parallel.Panic); ok {
				err = fmt.Errorf("%w: %v\n\nworker goroutine stack:\n%s", ErrPanic, p.Value, p.Stack)
				return
			}
			err = fmt.Errorf("%w: %v\n\ngoroutine stack:\n%s", ErrPanic, r, debug.Stack())
		}
	}()
	if job.explain {
		// Both policies settle from one instrumented walk per workload
		// phase, so the pair shares the captures the decomposition identity
		// rides on; workloads fan out over the Lab's workers.
		lab := s.labFor(job.shift)
		errs := make([]error, len(job.wls))
		err := parallel.ForCtx(ctx, lab.Workers, len(job.wls), func(i int) {
			e, derr := lab.Diff(job.specs[0], job.specs[1], job.wls[i])
			if derr != nil {
				errs[i] = derr
				return
			}
			job.appendExplanation(e)
			s.prog.Add(1)
		})
		if err != nil {
			return err
		}
		for _, derr := range errs {
			if derr != nil {
				return derr
			}
		}
		return nil
	}
	if job.sweep != nil {
		// The whole lattice is one stream walk per workload on the one-pass
		// engine; cells settle as each walk finishes.
		start := time.Now()
		_, err := s.labFor(job.shift).SweepGrid(ctx, *job.sweep, job.wls, func(c experiments.GridCell) {
			job.appendCell(c)
			s.metrics.cellDone(c, time.Since(start))
			s.prog.Add(1)
		})
		return err
	}
	return s.runGrid(ctx, s.labFor(job.shift), job)
}

// serveFromStore attempts the read-through path: on a verified store hit
// the stored cells are delivered through appendCell — so NDJSON streaming,
// /result rendering, and late-connect replay behave exactly as for a
// computed job — and the job completes without any grid work. A corrupt
// entry was already deleted by the store and reads as a miss; the caller
// recomputes and re-persists.
func (s *Server) serveFromStore(job *Job, fp string) bool {
	if s.store == nil {
		return false
	}
	var stored Result
	if !s.store.Get(fp, &stored) {
		return false
	}
	for _, c := range stored.Cells {
		job.appendCell(c)
	}
	for _, e := range stored.Explanations {
		job.appendExplanation(e)
	}
	job.finish(StateDone, nil)
	return true
}

// persist is the write-behind path: render the job's settled manifest and
// store it under its fingerprint, strictly before the caller publishes the
// done state. Best-effort — a full disk must not fail a job that computed
// correctly; the entry simply stays cold and the next identical request
// recomputes.
func (s *Server) persist(job *Job, fp string) {
	if s.store == nil {
		return
	}
	res := s.manifest(job)
	// The stored document is content-addressed and job-independent; the
	// per-request random job id would otherwise be the one field keeping
	// two identical results from being byte-identical.
	res.ID = ""
	s.store.Put(fp, res) //nolint:errcheck // write-behind is best-effort
}

// fingerprint renders the canonical configuration string a job's manifest
// is fully determined by: engine version, scale, the cache geometry under
// study, the sampling shift, the resolved workload and policy lists, and
// the canonicalized IPV. It is the persistence key of the result store, so
// everything that changes the cells must appear here — geometry included,
// because two daemons with different LLCs must never share an entry — and
// nothing request-cosmetic (like IPV spelling) may.
func (s *Server) fingerprint(job *Job) string {
	cfg := s.base.Cfg
	wls := make([]string, len(job.wls))
	for i, w := range job.wls {
		wls[i] = w.Name
	}
	pols := make([]string, len(job.specs))
	for i, sp := range job.specs {
		pols[i] = sp.Label
	}
	fp := fmt.Sprintf("gippr-serve|v2|records=%d|warm=%.6f|cache=%s;size=%d;ways=%d;block=%d;sets=%d|sample=%d|workloads=%s|policies=%s|ipv=%s",
		s.cfg.Scale.PhaseRecords, s.cfg.Scale.WarmFrac,
		cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.BlockBytes, cfg.Sets(),
		job.shift, strings.Join(wls, ","), strings.Join(pols, ","), job.ipvCanon)
	if job.sweep != nil {
		// Appended only for sweep jobs so every pre-existing grid
		// fingerprint — and the store entries addressed by them — is
		// untouched.
		fp += "|sweep=" + job.sweep.Key()
	}
	if job.explain {
		// Same suffix rule as sweeps: explain results carry full
		// explanations, not cells, so they must never share a store entry
		// with a grid job over the same policy pair — while leaving every
		// pre-existing grid and sweep fingerprint byte-identical.
		fp += fmt.Sprintf("|explain=v%d", explain.Version)
	}
	return fp
}

// runGridReal is the production job body: the shared-Lab grid engine with
// per-cell delivery into the job record and the metrics.
func (s *Server) runGridReal(ctx context.Context, lab *experiments.Lab, job *Job) error {
	start := time.Now()
	_, err := lab.Grid(ctx, job.specs, job.wls, func(c experiments.GridCell) {
		job.appendCell(c)
		s.metrics.cellDone(c, time.Since(start))
		s.prog.Add(1)
	})
	return err
}

// Result renders the done job's manifest: the configuration fingerprint
// (mirroring gippr-sim's -telemetry fingerprint format) plus every cell in
// workload-major order. Cells accumulate in completion order while the job
// runs (that is the order the NDJSON stream shows), so the manifest sorts
// them back into the deterministic workload-major layout gippr-sim prints.
func (s *Server) Result(job *Job) (*Result, error) {
	job.mu.Lock()
	state, err := job.state, job.err
	job.mu.Unlock()
	if state != StateDone {
		if err != nil {
			// Both sentinels stay in the chain: a panicked job's result
			// reads as a server fault (500 via ErrPanic), any other
			// non-done state as a 409.
			return nil, fmt.Errorf("%w: state %s: %w", ErrNotDone, state, err)
		}
		return nil, fmt.Errorf("%w: state %s", ErrNotDone, state)
	}
	return s.manifest(job), nil
}

// manifest renders a job's result document from its current cells without
// the done-state gate, so the write-behind persist can run strictly before
// the done transition is published.
func (s *Server) manifest(job *Job) *Result {
	job.mu.Lock()
	cells := append([]experiments.GridCell(nil), job.cells...)
	expls := append([]*explain.Explanation(nil), job.expls...)
	job.mu.Unlock()
	if job.explain {
		// Explanations accumulate in completion order; the manifest sorts
		// them into workload order, mirroring the cell layout below.
		wlRank := make(map[string]int, len(job.wls))
		for wi, w := range job.wls {
			wlRank[w.Name] = wi
		}
		sort.Slice(expls, func(a, b int) bool {
			return wlRank[expls[a].Workload] < wlRank[expls[b].Workload]
		})
	} else {
		expls = nil
	}
	labels := job.cellLabels()
	rank := make(map[string]int, len(job.wls)*len(labels))
	for wi, w := range job.wls {
		for li, label := range labels {
			rank[w.Name+"\x00"+label] = wi*len(labels) + li
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		return rank[cells[a].Workload+"\x00"+cells[a].Policy] < rank[cells[b].Workload+"\x00"+cells[b].Policy]
	})
	lab := s.labFor(job.shift)
	geom := telemetry.CacheGeometry{
		Name: lab.Cfg.Name, SizeBytes: lab.Cfg.SizeBytes, Ways: lab.Cfg.Ways,
		BlockBytes: lab.Cfg.BlockBytes, Sets: lab.Cfg.Sets(),
	}
	if job.shift > 0 {
		geom.SampleShift = job.shift
		geom.SampledSets = lab.Cfg.SampledSets()
	}
	return &Result{
		ID:           job.ID,
		Fingerprint:  s.fingerprint(job),
		Cache:        geom,
		Records:      s.cfg.Scale.PhaseRecords,
		WarmFrac:     s.cfg.Scale.WarmFrac,
		Sweep:        job.sweep,
		Cells:        cells,
		Explanations: expls,
	}
}

// Result is the GET /v1/jobs/{id}/result document. Sweep, present only on
// one-pass sweep jobs, is the geometry-lattice section: it names the
// lattice the cells cover, and the cells themselves carry lattice point
// labels ("lru@4096x16") in place of policy names. Explanations, present
// only on explain jobs, holds one policy-diff explanation per workload in
// workload order (such jobs have no cells).
type Result struct {
	ID           string                   `json:"id"`
	Fingerprint  string                   `json:"fingerprint"`
	Cache        telemetry.CacheGeometry  `json:"cache"`
	Records      int                      `json:"records_per_phase"`
	WarmFrac     float64                  `json:"warm_frac"`
	Sweep        *experiments.LatticeSpec `json:"sweep,omitempty"`
	Cells        []experiments.GridCell   `json:"cells"`
	Explanations []*explain.Explanation   `json:"explanations,omitempty"`
}

// Drain performs the SIGTERM shutdown contract: stop intake (submissions
// fail with ErrDraining), reject every still-queued job, let in-flight jobs
// finish, and return once the pool is idle. If ctx expires first, Drain
// returns its error with jobs still running — the caller can then Close to
// force-cancel them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers drain the remainder and see draining=true
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close force-cancels every in-flight job through the base context. It is
// the escalation path after a Drain deadline, and safe to call at any time.
func (s *Server) Close() { s.baseCancel() }

// Health is the GET /healthz document. Beyond liveness it carries the
// daemon's result-determining configuration — scale and cache geometry —
// so a client can tell which configuration its results will be computed
// under before it submits.
type Health struct {
	OK       bool    `json:"ok"`
	Draining bool    `json:"draining"`
	Records  int     `json:"records_per_phase"`
	WarmFrac float64 `json:"warm_frac"`
	Cache    string  `json:"cache"`
}

// Health renders the daemon's current health document.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	cfg := s.base.Cfg
	return Health{
		OK:       !draining,
		Draining: draining,
		Records:  s.cfg.Scale.PhaseRecords,
		WarmFrac: s.cfg.Scale.WarmFrac,
		Cache: fmt.Sprintf("%s;size=%d;ways=%d;block=%d;sets=%d",
			cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.BlockBytes, cfg.Sets()),
	}
}
