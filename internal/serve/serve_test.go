package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/ipv"
	"gippr/internal/workload"
)

// testScale keeps daemon tests fast; it is also the scale the equivalence
// test rebuilds independently, so the two engines must agree bit-for-bit.
var testScale = experiments.CustomScale(4_000, 1.0/3)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Scale.PhaseRecords == 0 {
		cfg.Scale = testScale
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			s.Close()
		}
	})
	return s
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for job %s to reach %s (at %s)", id, want, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServedGridBitIdentical is the acceptance criterion: a served job's
// manifest must be bit-identical to what the gippr-sim CLI computes for the
// same grid. Both run Lab.Grid, so the test rebuilds the CLI side as a
// fresh Lab at the daemon's scale and compares cells with exact equality —
// every float bit included. The exact row is the IPV-search probe shape:
// no registry policies, so the job carries the one GIPPR* cell alone.
func TestServedGridBitIdentical(t *testing.T) {
	var registry []experiments.Spec
	for _, n := range []string{"lru", "plru"} {
		sp, err := experiments.SpecFromRegistry(n)
		if err != nil {
			t.Fatal(err)
		}
		registry = append(registry, sp)
	}
	cases := []struct {
		name  string
		req   JobRequest
		specs []experiments.Spec // the CLI side's specs for req
	}{
		{
			name: "registry policies",
			req: JobRequest{
				Workloads: []string{"mcf_like", "libquantum_like"},
				Policies:  []string{"lru", "plru"},
			},
			specs: registry,
		},
		{
			name: "exact ipv",
			req: JobRequest{
				Workloads: []string{"mcf_like"},
				IPV:       ipv.PaperWIGIPPR.String(),
				Exact:     true,
			},
			specs: []experiments.Spec{experiments.SpecForIPV("GIPPR*", ipv.PaperWIGIPPR)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 2, QueueDepth: 4, LabWorkers: 2})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// The CLI side: a fresh Lab at the same scale, same specs, same
			// workloads — the exact computation gippr-sim prints as its table.
			var wls []workload.Workload
			for _, n := range tc.req.Workloads {
				w, err := workload.ByName(n)
				if err != nil {
					t.Fatal(err)
				}
				wls = append(wls, w)
			}
			want, err := experiments.NewLab(testScale).Grid(context.Background(), tc.specs, wls, nil)
			if err != nil {
				t.Fatalf("reference Grid: %v", err)
			}

			st, resp := postJob(t, ts, tc.req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d, want 202", resp.StatusCode)
			}
			if st.CellsTotal != len(want) {
				t.Fatalf("CellsTotal = %d, want %d", st.CellsTotal, len(want))
			}
			done := waitState(t, ts, st.ID, StateDone)
			if done.ResultURL == "" {
				t.Fatal("done status missing result_url")
			}
			res := getResult(t, ts, st.ID)
			if !reflect.DeepEqual(res.Cells, want) {
				t.Errorf("served cells are not bit-identical to the CLI engine:\n served %+v\n want   %+v", res.Cells, want)
			}
			if !strings.Contains(res.Fingerprint, "records=4000") {
				t.Errorf("fingerprint %q missing scale", res.Fingerprint)
			}
			if tc.req.Exact {
				if len(res.Cells) != 1 || res.Cells[0].Policy != "GIPPR*" {
					t.Errorf("exact ipv job returned %+v, want exactly one GIPPR* cell", res.Cells)
				}
			}

			// Resubmitting the same grid is served from the shared Lab's memo
			// and must reproduce the identical manifest cells.
			st2, _ := postJob(t, ts, tc.req)
			waitState(t, ts, st2.ID, StateDone)
			if res2 := getResult(t, ts, st2.ID); !reflect.DeepEqual(res.Cells, res2.Cells) {
				t.Error("repeat job disagrees with first (memo reads must be identical)")
			}
		})
	}
}

// TestStreamNDJSON: the stream endpoint yields one JSON cell per line then a
// terminal-state trailer, and the union of streamed cells equals the result.
func TestStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru", "plru"}})
	resp, err := http.Get(ts.URL + st.StreamURL)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var cells []experiments.GridCell
	var trailer struct {
		State State `json:"state"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"state"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", line, err)
			}
			continue
		}
		var c experiments.GridCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if trailer.State != StateDone {
		t.Fatalf("trailer state = %q, want done", trailer.State)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	// Late-connecting client gets the full replay.
	resp2, err := http.Get(ts.URL + st.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n := 0
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		n++
	}
	if n != 3 { // 2 cells + trailer
		t.Errorf("replayed stream has %d lines, want 3", n)
	}
}

// blockingGrid substitutes the job body with one that parks until released
// (or its context ends), making queue saturation deterministic.
type blockingGrid struct {
	started chan string   // job IDs, as their runGrid begins
	release chan struct{} // close to let every parked job finish
}

func installBlocking(s *Server) *blockingGrid {
	b := &blockingGrid{started: make(chan string, 64), release: make(chan struct{})}
	s.runGrid = func(ctx context.Context, _ *experiments.Lab, job *Job) error {
		b.started <- job.ID
		select {
		case <-b.release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return b
}

// TestQueueFullRejects: submissions beyond workers+queue get 429 with a
// Retry-After header and never block.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	b := installBlocking(s)
	defer close(b.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}
	// First job occupies the worker...
	st1, _ := postJob(t, ts, req)
	<-b.started
	// ...second fills the queue...
	if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202", resp.StatusCode)
	}
	// ...third must bounce, immediately.
	start := time.Now()
	_, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejection took %v; Submit must not block", elapsed)
	}
	var snap MetricsSnapshot
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Rejected429 != 1 || snap.JobsSubmitted != 2 || snap.JobsInflight != 1 {
		t.Errorf("metrics = %+v, want 1 rejection, 2 submitted, 1 inflight", snap)
	}
	_ = st1
}

// TestDrain pins the SIGTERM contract: draining stops intake with 503,
// rejects still-queued jobs, lets the in-flight job finish, and Drain
// returns once idle.
func TestDrain(t *testing.T) {
	s := New(Config{Scale: testScale, Workers: 1, QueueDepth: 2})
	b := installBlocking(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}
	running, _ := postJob(t, ts, req)
	<-b.started
	queued, _ := postJob(t, ts, req)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Wait for intake to close, then verify rejections while the in-flight
	// job still runs.
	for i := 0; ; i++ {
		if _, resp := postJob(t, ts, req); resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			break
		}
		if i > 500 {
			t.Fatal("draining server kept accepting jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hresp.StatusCode)
	}

	close(b.release) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := waitState(t, ts, running.ID, StateDone); st.State != StateDone {
		t.Errorf("in-flight job = %s, want done", st.State)
	}
	qj, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := qj.Status(); st.State != StateRejected {
		t.Errorf("queued job after drain = %s, want rejected", st.State)
	}
}

// TestConcurrentSubmitters hammers a small queue from many goroutines (the
// -race exercise): every submission either lands or bounces with 429, all
// accepted jobs reach done, and the books balance.
func TestConcurrentSubmitters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 2, LabWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []string
	rejected := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Errorf("submit %d decode: %v", i, err)
					return
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("submit %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if len(accepted)+rejected != n {
		t.Fatalf("accepted %d + rejected %d != %d", len(accepted), rejected, n)
	}
	if len(accepted) == 0 {
		t.Fatal("every submission bounced; queue never admitted work")
	}
	for _, id := range accepted {
		waitState(t, ts, id, StateDone)
	}
}

// TestSubmitValidation: every bad input maps to 400 via the typed
// sentinels; missing jobs are 404; early results are 409.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	b := installBlocking(s)
	defer close(b.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []JobRequest{
		{Policies: []string{"no-such-policy"}},
		{Workloads: []string{"no_such_workload"}},
		{Workloads: []string{"lbm_like"}, IPV: "[ not a vector ]"},
		{Workloads: []string{"lbm_like"}, Sample: -1},
		{Workloads: []string{"lbm_like"}, Sample: 64},
		{Workloads: []string{"lbm_like"}, TimeoutSec: -1},
		{Workloads: []string{"lbm_like"}, Exact: true}, // exact, yet names no policy and no IPV
	}
	for i, req := range bad {
		if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Unknown fields are rejected too (a typo must not silently no-op).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload": ["lbm_like"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	gresp, err := http.Get(ts.URL + "/v1/jobs/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", gresp.StatusCode)
	}

	st, _ := postJob(t, ts, JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}})
	<-b.started
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("result of running job: status %d, want 409", rresp.StatusCode)
	}
}

// TestCancel: DELETE cancels a running job (its context ends, state becomes
// cancelled) and a queued job directly, and /metrics counts both — the
// queued one is settled by the DELETE itself, never by a worker.
func TestCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	b := installBlocking(s)
	defer close(b.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}
	running, _ := postJob(t, ts, req)
	<-b.started
	queued, _ := postJob(t, ts, req)

	for _, id := range []string{queued.ID, running.ID} {
		dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(dreq)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: status %d, want 202", id, dresp.StatusCode)
		}
	}
	waitState(t, ts, running.ID, StateCancelled)
	waitState(t, ts, queued.ID, StateCancelled)
	if got := s.Snapshot().JobsCancelled; got != 2 {
		t.Errorf("metrics jobs_cancelled = %d, want 2", got)
	}

	// Cancelling a settled job again is a no-op: no transition, no count.
	qj, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qj.Cancel() {
		t.Error("re-cancelling a cancelled job reported a transition")
	}
	if got := s.Snapshot().JobsCancelled; got != 2 {
		t.Errorf("metrics jobs_cancelled after a repeat cancel = %d, want 2", got)
	}
}

// TestJobTimeout: a request deadline cancels the job as cancelled, not
// failed.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	b := installBlocking(s)
	defer close(b.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobRequest{
		Workloads: []string{"lbm_like"}, Policies: []string{"lru"}, TimeoutSec: 0.05,
	})
	<-b.started
	waitState(t, ts, st.ID, StateCancelled)
}

// TestResolveTimeoutValidation: a negative or non-finite timeout_sec is a
// typed usage error (400), never silently replaced by the server default.
// NaN and Inf cannot arrive through the JSON handler (encoding/json rejects
// them), but Submit is also a Go API, so resolve itself must refuse them.
func TestResolveTimeoutValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, bad := range []float64{-1, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := s.resolve(JobRequest{Workloads: []string{"lbm_like"}, TimeoutSec: bad})
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("resolve(timeout_sec=%v) err = %v, want ErrBadRequest", bad, err)
		}
		if got := StatusOf(err); got != http.StatusBadRequest {
			t.Errorf("StatusOf(resolve(timeout_sec=%v)) = %d, want 400", bad, got)
		}
	}
	for _, ok := range []float64{0, 0.5, 30} {
		if _, err := s.resolve(JobRequest{Workloads: []string{"lbm_like"}, TimeoutSec: ok}); err != nil {
			t.Errorf("resolve(timeout_sec=%v) = %v, want nil", ok, err)
		}
	}
}

// TestCancelPickupRace hammers DELETE against worker pickup of queued jobs
// (run under -race). The state-machine contract it pins: a job the cancel
// handler reported as cancelled (terminal) is never resurrected to running
// — its grid body must not execute — and the done/cancelled metrics count
// exactly the transitions that actually happened, so a cancelled job never
// also increments jobs_done.
func TestCancelPickupRace(t *testing.T) {
	const n = 200
	s := newTestServer(t, Config{Workers: 2, QueueDepth: n})
	var mu sync.Mutex
	ran := make(map[string]bool)
	s.runGrid = func(_ context.Context, _ *experiments.Lab, job *Job) error {
		mu.Lock()
		ran[job.ID] = true
		mu.Unlock()
		return nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}
	type attempt struct {
		id       string
		atCancel State // state the DELETE response reported
	}
	var attempts []attempt
	for i := 0; i < n; i++ {
		job, err := s.Submit(req)
		if errors.Is(err, ErrQueueFull) {
			continue // workers lagging; the submitted jobs still exercise the race
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
		dresp, err := http.DefaultClient.Do(dreq)
		if err != nil {
			t.Fatalf("DELETE %d: %v", i, err)
		}
		var st JobStatus
		if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
			t.Fatalf("decode DELETE response %d: %v", i, err)
		}
		dresp.Body.Close()
		attempts = append(attempts, attempt{id: job.ID, atCancel: st.State})
	}

	// Wait for every job to settle.
	deadline := time.Now().Add(20 * time.Second)
	for _, a := range attempts {
		for {
			job, err := s.Get(a.id)
			if err != nil {
				t.Fatal(err)
			}
			if job.Status().State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never settled (state %s)", a.id, job.Status().State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	var done, cancelled int
	for _, a := range attempts {
		job, _ := s.Get(a.id)
		final := job.Status().State
		switch final {
		case StateDone:
			done++
			if !ran[a.id] {
				t.Errorf("job %s is done but its grid never ran", a.id)
			}
		case StateCancelled:
			cancelled++
			if ran[a.id] {
				t.Errorf("job %s is cancelled but its grid ran (cancelled queued job was resurrected)", a.id)
			}
		default:
			t.Errorf("job %s settled as %s, want done or cancelled", a.id, final)
		}
		if a.atCancel.Terminal() && final != a.atCancel {
			t.Errorf("job %s: DELETE reported terminal %s but final state is %s (terminal state changed)",
				a.id, a.atCancel, final)
		}
	}
	snap := s.Snapshot()
	if snap.JobsDone != uint64(done) {
		t.Errorf("metrics jobs_done = %d, want %d (post-cancel done must not count)", snap.JobsDone, done)
	}
	if snap.JobsCancelled != uint64(cancelled) {
		t.Errorf("metrics jobs_cancelled = %d, want %d", snap.JobsCancelled, cancelled)
	}
	if done+cancelled != len(attempts) {
		t.Errorf("done %d + cancelled %d != %d jobs", done, cancelled, len(attempts))
	}
}

// TestStatusOf pins the error -> HTTP mapping.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrNotFound, http.StatusNotFound},
		{fmt.Errorf("wrap: %w", ErrNotDone), http.StatusConflict},
		{fmt.Errorf("wrap: %w", ErrQueueFull), http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", ErrBadRequest), http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
