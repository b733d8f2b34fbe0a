// Package serve is the simulation-as-a-service layer: a long-lived job
// daemon that runs {workloads x policies x sampling} grids, one-pass
// geometry sweeps and policy-diff explanations over one shared, memoized
// experiments.Lab behind an HTTP/JSON v1 API (cmd/gippr-serve is the
// binary). Submission resolves each job into a query, the one place its
// kind is decided; every later stage runs one path for all three kinds.
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
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/parallel"
	"gippr/internal/resultstore"
	"gippr/internal/runctx"
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

// maxFinishedJobs bounds the finished jobs the job table keeps: past it,
// each job a worker settles evicts the oldest finished one, so a
// long-running daemon's table holds at most this many finished jobs
// besides the queued and running ones (about 25 KB each for a store hit,
// so ~25 MB). An evicted id answers 404 like an unknown one; its result
// stays in the store, so resubmitting its request is still a store hit.
const maxFinishedJobs = 1024

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

	mu       sync.Mutex // guards jobs, order, finished, draining, and queue sends
	jobs     map[string]*Job
	order    []string // every kept job's id, in submission order
	finished []string // finished jobs' ids, in the order workers settled them
	queue    chan *Job
	draining bool

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	metrics *Metrics
	prog    *runctx.Progress

	// runQuery is the job body (emitAll in production) and the one
	// execution seam, for every kind of job: tests substitute blocking,
	// panicking, or gated stubs to drive the queue, the panic boundary,
	// and drain deterministically.
	runQuery func(ctx context.Context, lab *experiments.Lab, job *Job) error
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
	s.runQuery = s.emitAll
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

// resolve validates a request into its immutable execution plan, deciding
// the job's kind once: the query it builds carries everything that kind
// determines. Every failure wraps one of the typed sentinels, so the HTTP
// layer can map it to 400 with errors.Is.
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

	// A sweep's lattice and an explain job's pair are each the whole
	// policy surface, and both engines are exact only at full fidelity,
	// so nothing else composes with them.
	if req.Sweep != nil && req.Explain != nil {
		return nil, fmt.Errorf("%w: a job is a grid, a sweep, or an explain — not two at once", ErrBadRequest)
	}
	if (req.Sweep != nil || req.Explain != nil) && (len(req.Policies) > 0 || req.IPV != "" || req.Exact || req.Sample != 0) {
		return nil, fmt.Errorf("%w: sweep and explain jobs run at full fidelity; they take no policies, ipv, exact flag, or sample", ErrBadRequest)
	}
	var q query
	var err error
	switch {
	case req.Sweep != nil:
		q, err = s.sweepQuery(*req.Sweep)
	case req.Explain != nil:
		q, err = explainQuery(*req.Explain)
	default:
		q, err = gridQuery(req)
	}
	if err != nil {
		return nil, err
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
		ID:      newID(),
		Req:     req,
		q:       q,
		wls:     wls,
		shift:   shift,
		timeout: timeout,
		metrics: s.metrics,
		state:   StateQueued,
		created: time.Now(),
		updated: make(chan struct{}),
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

// Jobs returns every job the table keeps (see maxFinishedJobs) in
// submission order.
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
		} else {
			s.run(job)
		}
		s.retire(job)
	}
}

// retire records job, which the calling worker has just dequeued and
// settled, as finished, and past maxFinishedJobs evicts the oldest
// finished job from the table. Every job is dequeued once and is terminal
// when its worker is done with it (a job cancelled while queued settled
// before), so the table never evicts a queued or running one.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.ID)
	if len(s.finished) <= maxFinishedJobs {
		return
	}
	id := s.finished[0]
	s.finished = s.finished[1:]
	delete(s.jobs, id)
	i := slices.Index(s.order, id)
	s.order = slices.Delete(s.order, i, i+1)
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

// execute runs one job through runQuery. It is the panic boundary of the
// worker pool: a panicking run — a policy bug, a bad vector deep in the
// replay kernel — fails only this job, with the panic value and goroutine
// stack captured in the job error (following the parallel.Panic
// convention, whose worker stack is preserved when the panic crossed the
// fan-out), never the daemon.
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
	return s.runQuery(ctx, s.labFor(job.shift), job)
}

// emitAll is the production job body: the query's one engine call, with
// each item delivered into the job record and the metrics.
func (s *Server) emitAll(ctx context.Context, lab *experiments.Lab, job *Job) error {
	start := time.Now()
	return job.q.run(ctx, lab, job.wls, func(it any) {
		job.emit(it)
		if c, ok := it.(*experiments.GridCell); ok {
			// Explanations replay nothing of their own to count.
			s.metrics.cellDone(*c, time.Since(start))
		}
		s.prog.Add(1)
	})
}

// serveFromStore attempts the read-through path: on a verified store hit
// the stored cells and explanations are delivered through emit — so NDJSON
// streaming, /result rendering, and late-connect replay behave exactly as
// for a computed job — and the job completes without any engine work. A
// corrupt entry was already deleted by the store and reads as a miss; the
// caller recomputes and re-persists.
func (s *Server) serveFromStore(job *Job, fp string) bool {
	if s.store == nil {
		return false
	}
	var stored Result
	if !s.store.Get(fp, &stored) {
		return false
	}
	// Items point into one exact-size copy of the stored cells: a kept job
	// holds one cell array, not one object per cell for the collector to
	// scan, and none of the decoder's spare capacity.
	cells := slices.Clone(stored.Cells)
	for i := range cells {
		job.emit(&cells[i])
	}
	for _, e := range stored.Explanations {
		job.emit(e)
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
// study, the sampling shift, the resolved workload and policy lists, the
// canonicalized IPV, and the query's kind suffix. It is the persistence
// key of the result store, so everything that changes the result must
// appear here — geometry included, because two daemons with different
// LLCs must never share an entry — and nothing request-cosmetic (like IPV
// spelling) may.
func (s *Server) fingerprint(job *Job) string {
	cfg := s.base.Cfg
	wls := make([]string, len(job.wls))
	for i, w := range job.wls {
		wls[i] = w.Name
	}
	return fmt.Sprintf("gippr-serve|v2|records=%d|warm=%.6f|cache=%s;size=%d;ways=%d;block=%d;sets=%d|sample=%d|workloads=%s|policies=%s|ipv=%s%s",
		s.cfg.Scale.PhaseRecords, s.cfg.Scale.WarmFrac,
		cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.BlockBytes, cfg.Sets(),
		job.shift, strings.Join(wls, ","), strings.Join(job.q.policies, ","), job.q.ipv, job.q.tail)
}

// Result renders the done job's manifest: the configuration fingerprint
// (mirroring gippr-sim's -telemetry fingerprint format) plus every cell or
// explanation in workload-major order.
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

// manifest renders a job's result document from its current items without
// the done-state gate, so the write-behind persist can run strictly before
// the done transition is published. Items settle in completion order (the
// order the NDJSON stream shows); the manifest sorts them by workload, then
// by label, into the deterministic layout gippr-sim prints, and splits
// them into cells and explanations only here, at the wire. A workload or
// label listed twice ranks at its last position, the order every stored
// document already has.
func (s *Server) manifest(job *Job) *Result {
	items, _, _ := job.snapshotFrom(0)
	wlRank := make(map[string]int, len(job.wls))
	for i, w := range job.wls {
		wlRank[w.Name] = i
	}
	labelRank := make(map[string]int, job.q.per)
	for i, l := range job.q.labels() {
		labelRank[l] = i
	}
	rank := func(wl, label string) int { return wlRank[wl]*job.q.per + labelRank[label] }
	res := &Result{
		ID:          job.ID,
		Fingerprint: s.fingerprint(job),
		Cache:       s.labFor(job.shift).Geometry(),
		Records:     s.cfg.Scale.PhaseRecords,
		WarmFrac:    s.cfg.Scale.WarmFrac,
		Sweep:       job.Req.Sweep,
	}
	for _, it := range items {
		switch v := it.(type) {
		case *experiments.GridCell:
			res.Cells = append(res.Cells, *v)
		case *explain.Explanation:
			res.Explanations = append(res.Explanations, v)
		}
	}
	cs, es := res.Cells, res.Explanations
	sort.SliceStable(cs, func(a, b int) bool { return rank(cs[a].Workload, cs[a].Policy) < rank(cs[b].Workload, cs[b].Policy) })
	sort.SliceStable(es, func(a, b int) bool { return rank(es[a].Workload, "") < rank(es[b].Workload, "") })
	return res
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
