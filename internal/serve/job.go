package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/workload"
)

// State is a job's lifecycle stage. Transitions are strictly forward:
// queued -> running -> one of done/failed/cancelled, or queued -> rejected
// when a drain empties the queue before a worker picks the job up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateRejected  State = "rejected"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateRejected:
		return true
	}
	return false
}

// JobRequest is the POST /v1/jobs body: a {workloads x policies x sampling}
// grid spec. The daemon's scale (records per phase, warm-up fraction) is
// server configuration, not per-job — that is what lets jobs share one
// memoized Lab.
type JobRequest struct {
	// Workloads lists suite workload names; empty or ["all"] means the full
	// 29-workload suite.
	Workloads []string `json:"workloads,omitempty"`
	// Policies lists policy-registry names; empty means the gippr-sim
	// default set.
	Policies []string `json:"policies,omitempty"`
	// IPV, when set, adds a GIPPR policy driven by this vector (the same
	// syntax as gippr-sim's -ipv).
	IPV string `json:"ipv,omitempty"`
	// Sample is the set-sampling shift (0 = full fidelity). Negative or
	// geometry-exceeding shifts are rejected at submission.
	Sample int `json:"sample,omitempty"`
	// TimeoutSec caps the job's wall-clock run time. 0 uses the server
	// default; values above the server maximum are clamped to it.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Exact disables the default-policy fallback: an empty Policies list
	// then means "no registry policies" (the IPV spec alone, when set)
	// instead of the gippr-sim default set, so a job carries exactly the
	// cells it names — one GIPPR cell per workload for an IPV-search probe.
	Exact bool `json:"exact,omitempty"`
	// Sweep switches the job to the one-pass all-geometry engine: instead
	// of a {workloads x policies} grid, the job scores the full LRU lattice
	// (power-of-two set counts in [min_sets, max_sets] crossed with
	// associativities 1..max_ways, plus the listed tree-PLRU geometries) in
	// one stream walk per workload. Sweep jobs take no policies, IPV, exact
	// flag, or sampling — geometry and policy shape are the sweep spec
	// itself. Impossible or oversized lattices are rejected at submission
	// with HTTP 400, never mid-replay.
	Sweep *experiments.LatticeSpec `json:"sweep,omitempty"`
	// Explain switches the job to the policy-diff engine: instead of grid
	// cells, the job produces one explain.Explanation per workload for the
	// named policy pair. Explain jobs take no policies, IPV, exact flag, or
	// sampling — the pair is the whole policy surface, and the exact
	// decomposition identity requires full fidelity.
	Explain *ExplainRequest `json:"explain,omitempty"`
}

// ExplainRequest names the policy pair of an explain job: the report
// attributes PolicyB's miss delta relative to PolicyA. Both are registry
// names, resolved with the same lookup as grid policies.
type ExplainRequest struct {
	PolicyA string `json:"policy_a"`
	PolicyB string `json:"policy_b"`
}

// defaultPolicies mirrors gippr-sim's -policies default.
var defaultPolicies = []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"}

// Job is one submitted grid, sweep or explain job. All mutable fields are
// guarded by mu; broadcast to watchers (streaming handlers, pollers in
// tests) happens by closing and replacing the updated channel.
type Job struct {
	ID  string
	Req JobRequest

	// Resolved at submission (immutable afterwards).
	q       query
	wls     []workload.Workload
	shift   uint
	timeout time.Duration
	metrics *Metrics // the server's counters; settle bumps one per terminal transition

	mu       sync.Mutex
	state    State
	err      error
	items    []any // settled *experiments.GridCell or *explain.Explanation, in completion order
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	updated  chan struct{}
}

// newID returns a 16-hex-char random job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// broadcast wakes every watcher; call with mu held.
func (j *Job) broadcast() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// emit records one settled item — a cell or an explanation — and wakes
// watchers.
func (j *Job) emit(it any) {
	j.mu.Lock()
	j.items = append(j.items, it)
	j.broadcast()
	j.mu.Unlock()
}

// setRunning atomically transitions queued -> running and installs the
// job's cancel function (DELETE /v1/jobs/{id} calls it). It refuses
// terminal states — a job cancelled while queued must stay cancelled, not
// be resurrected by the worker that later dequeues it — and reports
// whether the transition happened; on false the caller must not run the
// job.
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.broadcast()
	return true
}

// finish transitions to a terminal state unless the job already reached
// one (a DELETE may have settled it first).
func (j *Job) finish(state State, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.settle(state, err)
	}
}

// settle performs a terminal transition; call it with mu held on a job
// that is not yet terminal, so each job is counted exactly once. The
// state's counter is bumped before watchers are woken, inside the same
// critical section, so a client that observes the terminal state never
// reads metrics that miss it.
func (j *Job) settle(state State, err error) {
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.metrics.settled(state)
	j.broadcast()
}

// Cancel requests cooperative cancellation of a running job; a queued job
// cancels immediately, and Cancel reports whether this call made that
// queued -> cancelled transition (a running job settles later, on its
// worker). Cancelling a terminal job is a no-op. The decision is made in
// one critical section with the state transitions above, so a DELETE
// racing the worker's pickup resolves to exactly one of two
// serializations: the cancel lands first and setRunning refuses, or the
// pickup lands first and the job's context is cancelled.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// Terminal immediately, under the same lock the worker's
		// setRunning will take — no resurrection window.
		j.settle(StateCancelled, context.Canceled)
		j.mu.Unlock()
		return true
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // the run loop observes ctx and finishes as cancelled
		}
		return false
	}
	j.mu.Unlock()
	return false
}

// snapshotFrom returns the items appended at or after index i, the channel
// that will be closed on the next update, and the current state — the
// streaming handler's wait primitive.
func (j *Job) snapshotFrom(i int) ([]any, <-chan struct{}, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []any
	if i < len(j.items) {
		out = append(out, j.items[i:]...)
	}
	return out, j.updated, j.state
}

// JobStatus is the GET /v1/jobs/{id} JSON view.
type JobStatus struct {
	ID         string                   `json:"id"`
	State      State                    `json:"state"`
	Created    time.Time                `json:"created"`
	Started    *time.Time               `json:"started,omitempty"`
	Finished   *time.Time               `json:"finished,omitempty"`
	CellsDone  int                      `json:"cells_done"`
	CellsTotal int                      `json:"cells_total"`
	Error      string                   `json:"error,omitempty"`
	Sample     int                      `json:"sample,omitempty"`
	Workloads  []string                 `json:"workloads"`
	Policies   []string                 `json:"policies"`
	Sweep      *experiments.LatticeSpec `json:"sweep,omitempty"`
	Explain    *ExplainRequest          `json:"explain,omitempty"`
	ResultURL  string                   `json:"result_url,omitempty"`
	StreamURL  string                   `json:"stream_url"`
}

// Status renders the job's current status view.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.ID,
		State:      j.state,
		Created:    j.created,
		CellsDone:  len(j.items),
		CellsTotal: len(j.wls) * j.q.per,
		Sample:     int(j.shift),
		Policies:   slices.Clone(j.q.policies),
		Sweep:      j.Req.Sweep,
		Explain:    j.Req.Explain,
		StreamURL:  "/v1/jobs/" + j.ID + "/stream",
	}
	for _, w := range j.wls {
		st.Workloads = append(st.Workloads, w.Name)
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return st
}
