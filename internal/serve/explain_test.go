package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/resultstore"
	"gippr/internal/workload"
)

// postExplain submits through the dedicated /v1/explain endpoint.
func postExplain(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/explain: %v", err)
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

// TestServedExplainBitIdentical is the explain acceptance criterion: the
// served result's explanations must be byte-identical (rendered JSON) to
// what a fresh Lab at the same scale derives via Lab.Diff — the same
// versioned document gippr-report's diff section prints.
func TestServedExplainBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, LabWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{
		Workloads: []string{"mcf_like", "libquantum_like"},
		Explain:   &ExplainRequest{PolicyA: "lru", PolicyB: "plru"},
	}
	st, resp := postExplain(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if st.CellsTotal != 2 {
		t.Fatalf("CellsTotal = %d, want 2 (one explanation per workload)", st.CellsTotal)
	}
	if st.Explain == nil || st.Explain.PolicyA != "lru" || st.Explain.PolicyB != "plru" {
		t.Fatalf("status explain spec = %+v", st.Explain)
	}
	done := waitState(t, ts, st.ID, StateDone)
	res := getResult(t, ts, done.ID)
	if len(res.Cells) != 0 {
		t.Fatalf("explain result carries %d grid cells, want 0", len(res.Cells))
	}
	if len(res.Explanations) != 2 {
		t.Fatalf("result has %d explanations, want 2", len(res.Explanations))
	}
	if !strings.Contains(res.Fingerprint, "|explain=") {
		t.Fatalf("explain fingerprint %q missing |explain= suffix", res.Fingerprint)
	}

	lab := experiments.NewLab(testScale).SetWorkers(2)
	a, err := experiments.SpecFromRegistry("lru")
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.SpecFromRegistry("plru")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"mcf_like", "libquantum_like"} {
		if res.Explanations[i].Workload != name {
			t.Fatalf("explanation %d is for %q, want %q (workload order)", i, res.Explanations[i].Workload, name)
		}
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lab.Diff(a, b, w)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(res.Explanations[i])
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: served explanation differs from fresh Lab.Diff\nserved: %s\nfresh:  %s", name, gotJSON, wantJSON)
		}
		var sum int64
		for _, bkt := range res.Explanations[i].Reuse {
			sum += bkt.SavedMisses
		}
		if sum != res.Explanations[i].MissesSaved {
			t.Fatalf("%s: served decomposition does not sum: %d vs %d", name, sum, res.Explanations[i].MissesSaved)
		}
	}
}

// TestExplainStreamNDJSON checks the streaming shape: one explanation per
// line, then the state trailer, and that the prose cites the exact MPKI
// strings the JSON fields carry.
func TestExplainStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, LabWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postExplain(t, ts, JobRequest{
		Workloads: []string{"mcf_like"},
		Explain:   &ExplainRequest{PolicyA: "lru", PolicyB: "gippr"},
	})
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + st.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want explanation + trailer", len(lines))
	}
	var e explain.Explanation
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 is not an explanation: %v", err)
	}
	if e.Version != explain.Version || e.Workload != "mcf_like" {
		t.Fatalf("streamed explanation = version %d workload %q", e.Version, e.Workload)
	}
	for _, v := range []float64{e.MPKIA, e.MPKIB} {
		raw, _ := json.Marshal(v)
		if !strings.Contains(e.Prose, string(raw)) {
			t.Fatalf("prose %q does not cite MPKI string %s", e.Prose, raw)
		}
	}
	var trailer map[string]State
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil || trailer["state"] != StateDone {
		t.Fatalf("trailer line %q, want state done", lines[1])
	}
}

// TestExplainBadRequests is the 400 table: explain cannot compose with any
// other engine or fidelity knob, the pair must resolve, and the dedicated
// endpoint refuses bodies without an explain spec.
func TestExplainBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pair := &ExplainRequest{PolicyA: "lru", PolicyB: "plru"}
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"with policies", JobRequest{Explain: pair, Policies: []string{"lru"}}},
		{"with ipv", JobRequest{Explain: pair, IPV: "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"}},
		{"with exact", JobRequest{Explain: pair, Exact: true}},
		{"with sample", JobRequest{Explain: pair, Sample: 2}},
		{"with sweep", JobRequest{Explain: pair, Sweep: &experiments.LatticeSpec{MinSets: 64, MaxSets: 64, MaxWays: 2}}},
		{"unknown policy", JobRequest{Explain: &ExplainRequest{PolicyA: "lru", PolicyB: "nope"}}},
		{"missing spec", JobRequest{Workloads: []string{"mcf_like"}}},
	}
	for _, tc := range cases {
		_, resp := postExplain(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// The generic /v1/jobs endpoint accepts explain bodies too (same
	// resolve path) — only the dedicated endpoint insists on the spec.
	st, resp := postJob(t, ts, JobRequest{Workloads: []string{"mcf_like"}, Explain: pair})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explain via /v1/jobs: status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)
}

// TestExplainStoreRoundTrip checks the persistence path: a repeat explain
// submission on a restarted daemon is served from the store byte-identical
// to the computed result, and explain store keys never collide with grid
// keys for the same policy pair.
func TestExplainStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st1, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	req := JobRequest{Workloads: []string{"mcf_like"}, Explain: &ExplainRequest{PolicyA: "lru", PolicyB: "plru"}}
	job1, _ := postExplain(t, ts1, req)
	waitState(t, ts1, job1.ID, StateDone)
	res1 := getResult(t, ts1, job1.ID)

	// A grid job over the same two policies must land under a different key.
	grid, _ := postJob(t, ts1, JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru", "plru"}})
	waitState(t, ts1, grid.ID, StateDone)
	gridRes := getResult(t, ts1, grid.ID)
	if gridRes.Fingerprint == res1.Fingerprint {
		t.Fatalf("grid and explain jobs share fingerprint %q", res1.Fingerprint)
	}
	if strings.Contains(gridRes.Fingerprint, "explain") {
		t.Fatalf("grid fingerprint %q mentions explain", gridRes.Fingerprint)
	}

	st2, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	job2, _ := postExplain(t, ts2, req)
	waitState(t, ts2, job2.ID, StateDone)
	res2 := getResult(t, ts2, job2.ID)
	if got := st2.Stats(); got.Hits != 1 {
		t.Fatalf("restarted store stats = %+v, want 1 hit", got)
	}
	res1.ID, res2.ID = "", ""
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("store round-trip changed the result:\nfirst:  %+v\nsecond: %+v", res1, res2)
	}
}
