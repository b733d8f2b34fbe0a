package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/parallel"
	"gippr/internal/resultstore"
)

// TestPanickingJobFailsNotTheDaemon is the panic-boundary regression test:
// a grid body that panics must fail exactly that job — panic value and
// stack in the job error, 500 from the result endpoint, counted in
// /metrics — while the daemon keeps serving.
func TestPanickingJobFailsNotTheDaemon(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Only the first grid body panics; later jobs run the real engine.
	realGrid := s.runQuery
	var calls atomic.Int32
	s.runQuery = func(ctx context.Context, lab *experiments.Lab, job *Job) error {
		if calls.Add(1) == 1 {
			panic("kaboom: nil policy state")
		}
		return realGrid(ctx, lab, job)
	}

	req := JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru"}}
	st, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	failed := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(failed.Error, "kaboom: nil policy state") {
		t.Fatalf("job error lost the panic value: %q", failed.Error)
	}
	if !strings.Contains(failed.Error, "goroutine stack:") {
		t.Fatalf("job error carries no stack: %q", failed.Error)
	}

	// The result endpoint must report a server fault, not a client one.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("result of panicked job: status %d, want 500", rresp.StatusCode)
	}

	if snap := s.Snapshot(); snap.JobsPanicked != 1 || snap.JobsFailed != 1 {
		t.Fatalf("panicked/failed = %d/%d, want 1/1", snap.JobsPanicked, snap.JobsFailed)
	}

	// The daemon survived: the next job runs the real grid and completes.
	st2, _ := postJob(t, ts, req)
	waitState(t, ts, st2.ID, StateDone)
}

// TestPanicPreservesWorkerStack covers the parallel.Panic convention: when
// the panic crossed the Lab's fan-out, the job error must carry the worker
// goroutine's original stack, not the rethrow site's.
func TestPanicPreservesWorkerStack(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.runQuery = func(context.Context, *experiments.Lab, *Job) error {
		panic(&parallel.Panic{Value: "index out of range", Stack: []byte("goroutine 42 [running]:\nworker.frame()")})
	}

	st, _ := postJob(t, ts, JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru"}})
	failed := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(failed.Error, "index out of range") {
		t.Fatalf("job error lost the panic value: %q", failed.Error)
	}
	if !strings.Contains(failed.Error, "worker goroutine stack:") || !strings.Contains(failed.Error, "worker.frame()") {
		t.Fatalf("job error lost the worker stack: %q", failed.Error)
	}
}

// TestDrainRacesInflightPersist drives the SIGTERM contract against the
// result store's write-behind: a drain issued while a job is mid-run must
// wait for both the job and its persist, leaving the store with exactly
// one complete, verified entry and no temp droppings — a daemon restarted
// onto the directory serves the result from disk.
func TestDrainRacesInflightPersist(t *testing.T) {
	dir := t.TempDir()
	st1, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Scale: testScale, Workers: 1, QueueDepth: 2, Store: st1})
	defer s1.Close()
	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	realGrid := s1.runQuery
	s1.runQuery = func(ctx context.Context, lab *experiments.Lab, job *Job) error {
		close(started)
		<-release
		// From here the job is the real thing: compute through the Lab so
		// the persisted entry is a genuine manifest.
		return realGrid(ctx, lab, job)
	}

	req := JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru", "plru"}}
	st, _ := postJob(t, ts, req)
	<-started

	// Job is mid-run: start the drain, and hold the job until the server
	// is provably draining (new submissions refused), so the drain/persist
	// race is real in every run, not a scheduling accident.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s1.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, resp := postJob(t, ts, req); resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started refusing submissions during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drained job finished and persisted.
	done := waitState(t, ts, st.ID, StateDone)
	want := getResult(t, ts, st.ID)
	if len(want.Cells) != 2 || done.CellsDone != 2 {
		t.Fatalf("drained job delivered %d cells (status %d), want 2", len(want.Cells), done.CellsDone)
	}
	if got := st1.Stats(); got.Entries != 1 {
		t.Fatalf("store entries after drain = %d, want 1", got.Entries)
	}
	assertNoTempFiles(t, dir)

	// Restart onto the directory: the entry must verify and serve the
	// bit-identical result with zero grid work.
	st2, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Store: st2})
	s2.runQuery = func(context.Context, *experiments.Lab, *Job) error {
		t.Error("restarted server ran the grid; the drained persist should have fed it")
		return nil
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st2nd, _ := postJob(t, ts2, req)
	waitState(t, ts2, st2nd.ID, StateDone)
	res2 := getResult(t, ts2, st2nd.ID)
	if stats := st2.Stats(); stats.Hits != 1 || stats.Corrupt != 0 {
		t.Fatalf("restart store stats = %+v, want 1 hit, 0 corrupt", stats)
	}
	res2.ID, want.ID = "", ""
	if len(res2.Cells) != len(want.Cells) || res2.Fingerprint != want.Fingerprint {
		t.Fatalf("restart served a different manifest: %+v vs %+v", res2, want)
	}
	for i := range res2.Cells {
		if res2.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d differs across restart: %+v vs %+v", i, res2.Cells[i], want.Cells[i])
		}
	}

	// Now the kill-mid-write shape: a process that died during a drain's
	// persist leaves a temp file behind. A reopen must sweep it and still
	// serve (or cleanly recompute) — never serve a torn entry.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-druid42"), []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st3.Stats(); got.Entries != 1 {
		t.Fatalf("reopen over stale temp file: entries = %d, want 1", got.Entries)
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("store left temp file %s behind", e.Name())
		}
	}
}
