package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/resultstore"
)

func getResult(t *testing.T, ts *httptest.Server, id string) Result {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, want 200", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return res
}

// TestStoreWarmRestart is the acceptance criterion for the persistent
// store: a daemon computes a result, "restarts" (a fresh Server over a
// fresh store handle on the same directory), and a repeat submission is
// served from disk — zero grid runs, bit-identical Result — while a
// corrupted entry degrades to recompute, never to bad data.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	req := JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru", "plru"}}
	job1, _ := postJob(t, ts1, req)
	waitState(t, ts1, job1.ID, StateDone)
	res1 := getResult(t, ts1, job1.ID)
	if got := st1.Stats(); got.Entries != 1 || got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("after first run store stats = %+v, want 1 entry from 1 miss", got)
	}

	// A same-process resubmission is already a store hit (the Lab memo
	// would also make it cheap, but the transition must go through the
	// store so the counters prove the read-through path).
	job1b, _ := postJob(t, ts1, req)
	waitState(t, ts1, job1b.ID, StateDone)
	if got := st1.Stats(); got.Hits != 1 {
		t.Fatalf("same-process repeat: store hits = %d, want 1", got.Hits)
	}

	// "Restart": drain the first daemon, open a second one over the same
	// directory with the grid stubbed to count invocations.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain first server: %v", err)
	}
	st2, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Store: st2})
	var gridRuns atomic.Int64
	real2 := s2.runQuery
	s2.runQuery = func(ctx context.Context, lab *experiments.Lab, job *Job) error {
		gridRuns.Add(1)
		return real2(ctx, lab, job)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	job2, _ := postJob(t, ts2, req)
	waitState(t, ts2, job2.ID, StateDone)
	res2 := getResult(t, ts2, job2.ID)
	if n := gridRuns.Load(); n != 0 {
		t.Errorf("warm restart ran the grid %d times, want 0 (result must come from the store)", n)
	}

	// Bit-identical modulo the per-request random job id, which is the one
	// field that names the request rather than the content.
	norm1, norm2 := res1, res2
	norm1.ID, norm2.ID = "", ""
	if !reflect.DeepEqual(norm1, norm2) {
		t.Errorf("restarted result differs from original:\n first  %+v\n second %+v", norm1, norm2)
	}
	snap := s2.Snapshot()
	if snap.StoreHits != 1 || snap.StoreEntries != 1 || snap.StoreBytes <= 0 {
		t.Errorf("metrics after warm hit = hits %d entries %d bytes %d, want 1/1/>0",
			snap.StoreHits, snap.StoreEntries, snap.StoreBytes)
	}

	// A store-hit job streams like a computed one: late-connect NDJSON
	// replay yields every cell plus the done trailer.
	sresp, err := http.Get(ts2.URL + "/v1/jobs/" + job2.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		lines++
	}
	if lines != 3 { // 2 cells + trailer
		t.Errorf("store-hit stream has %d lines, want 3", lines)
	}

	// Corrupt the entry on disk: the next identical submission must fall
	// back to recompute (one grid run), reproduce the same cells, and heal
	// the store entry.
	job2j, err := s2.Get(job2.ID)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, resultstore.Key(s2.fingerprint(job2j)))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(raw), `"mpki"`, `"mpkX"`, 1)
	if mangled == string(raw) {
		t.Fatal("test bug: corruption did not change the entry")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	job3, _ := postJob(t, ts2, req)
	waitState(t, ts2, job3.ID, StateDone)
	res3 := getResult(t, ts2, job3.ID)
	if n := gridRuns.Load(); n != 1 {
		t.Errorf("corrupt entry: grid ran %d times, want exactly 1 recompute", n)
	}
	if !reflect.DeepEqual(res3.Cells, res1.Cells) {
		t.Errorf("recomputed cells differ from original")
	}
	snap = s2.Snapshot()
	if snap.StoreCorrupt != 1 {
		t.Errorf("store_corrupt = %d, want 1", snap.StoreCorrupt)
	}
	if snap.StoreEntries != 1 {
		t.Errorf("store_entries = %d, want 1 (recompute must re-persist)", snap.StoreEntries)
	}
}

// TestFingerprintCanonicalization pins the two persistence-key fixes:
// equivalent IPV spellings collide to one fingerprint, and the cache
// geometry is part of the key so different LLCs can never share an entry.
func TestFingerprintCanonicalization(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	base := JobRequest{Workloads: []string{"lbm_like"}, Policies: []string{"lru"}}

	reqA, reqB := base, base
	reqA.IPV = "0,0,1,0,3,0,1,2,1,0,5,1,0,0,1,11,13"
	reqB.IPV = "[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]"
	jobA, err := s.resolve(reqA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := s.resolve(reqB)
	if err != nil {
		t.Fatal(err)
	}
	fpA, fpB := s.fingerprint(jobA), s.fingerprint(jobB)
	if fpA != fpB {
		t.Errorf("equivalent IPV spellings produce different fingerprints:\n %s\n %s", fpA, fpB)
	}
	if !strings.Contains(fpA, "ipv=[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]") {
		t.Errorf("fingerprint does not carry the canonical IPV: %s", fpA)
	}

	job, err := s.resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := s.fingerprint(job)
	for _, field := range []string{"cache=", "size=", "ways=", "block=", "sets=", "records=", "sample="} {
		if !strings.Contains(fp1, field) {
			t.Errorf("fingerprint missing %q: %s", field, fp1)
		}
	}
	// Same request against a lab with a different geometry must key
	// differently (halving the ways doubles the sets: both axes move).
	s.base.Cfg.Ways /= 2
	fp2 := s.fingerprint(job)
	if fp1 == fp2 {
		t.Errorf("fingerprint ignores cache geometry: %s", fp1)
	}
}

// TestStoreKeysPinned pins the full store key of every request shape byte
// for byte: grids (default, "all", explicit policies, IPV, exact IPV,
// sampled, duplicates), a sweep and an explain job. A changed key orphans
// every entry a daemon has persisted under the old one, so any change here
// must be deliberate. Bodies go through the wire decoder, the path every
// submission takes.
func TestStoreKeysPinned(t *testing.T) {
	const head = "gippr-serve|v2|records=4000|warm=0.333333|cache=L3;size=4194304;ways=16;block=64;sets=4096|sample="
	const suite = "mcf_like,libquantum_like,lbm_like,milc_like,soplex_like,sphinx3_like,cactusADM_like," +
		"leslie3d_like,GemsFDTD_like,omnetpp_like,xalancbmk_like,bwaves_like,zeusmp_like,wrf_like,astar_like," +
		"gcc_like,bzip2_like,hmmer_like,h264ref_like,perlbench_like,gromacs_like,dealII_like,tonto_like," +
		"sjeng_like,gobmk_like,namd_like,calculix_like,povray_like,gamess_like"
	const vec = "[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]"
	cases := []struct{ name, body, want string }{
		{"default grid", `{}`,
			head + "0|workloads=" + suite + "|policies=LRU,PLRU,DRRIP,PDP,GIPPR,4-DGIPPR|ipv="},
		{"all grid", `{"workloads": ["all"]}`,
			head + "0|workloads=" + suite + "|policies=LRU,PLRU,DRRIP,PDP,GIPPR,4-DGIPPR|ipv="},
		{"explicit policies", `{"workloads": ["mcf_like", "lbm_like"], "policies": ["lru", "plru", "drrip"]}`,
			head + "0|workloads=mcf_like,lbm_like|policies=LRU,PLRU,DRRIP|ipv="},
		{"ipv", `{"workloads": ["lbm_like"], "policies": ["lru"], "ipv": "0,0,1,0,3,0,1,2,1,0,5,1,0,0,1,11,13"}`,
			head + "0|workloads=lbm_like|policies=LRU,GIPPR*|ipv=" + vec},
		{"exact ipv", `{"workloads": ["mcf_like"], "ipv": "` + vec + `", "exact": true}`,
			head + "0|workloads=mcf_like|policies=GIPPR*|ipv=" + vec},
		{"sampled", `{"workloads": ["lbm_like", "mcf_like"], "policies": ["lru", "gippr"], "sample": 2}`,
			head + "2|workloads=lbm_like,mcf_like|policies=LRU,GIPPR|ipv="},
		{"sweep", `{"workloads": ["mcf_like", "lbm_like"], "sweep": {"min_sets": 1024, "max_sets": 4096, "max_ways": 4,
			"plru": [{"sets": 4096, "ways": 16}, {"sets": 8, "ways": 2}]}}`,
			head + "0|workloads=mcf_like,lbm_like|policies=|ipv=|sweep=1024:4096:4,4096x16,8x2"},
		{"explain", `{"workloads": ["mcf_like", "lbm_like"], "explain": {"policy_a": "lru", "policy_b": "gippr"}}`,
			head + "0|workloads=mcf_like,lbm_like|policies=LRU,GIPPR|ipv=|explain=v1"},
		{"duplicates", `{"workloads": ["mcf_like", "lbm_like", "mcf_like"], "policies": ["lru", "plru", "lru"]}`,
			head + "0|workloads=mcf_like,lbm_like,mcf_like|policies=LRU,PLRU,LRU|ipv="},
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := decodeJobRequest(strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			job, err := s.resolve(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.fingerprint(job); got != tc.want {
				t.Errorf("store key changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestJobTableBounded runs a store_hits-shaped loop past maxFinishedJobs:
// one computed job, then resubmissions of its request, each served from
// the store. The table must end at the bound, the evicted first job's id
// must answer 404 with the body an unknown id gets, and resubmitting its
// request must still be a store hit.
func TestJobTableBounded(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workloads: []string{"mcf_like"}, Policies: []string{"lru"}}
	first, _ := postJob(t, ts, req)
	waitState(t, ts, first.ID, StateDone)
	for range maxFinishedJobs + 8 {
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, updated, state := job.snapshotFrom(math.MaxInt)
			if state.Terminal() {
				break
			}
			<-updated
		}
	}
	if n := len(s.Jobs()); n != maxFinishedJobs {
		t.Fatalf("job table holds %d jobs after %d finished, want %d", n, maxFinishedJobs+9, maxFinishedJobs)
	}
	if got := st.Stats(); got.Hits != maxFinishedJobs+8 {
		t.Fatalf("store hits = %d, want %d: the loop is not store_hits-shaped", got.Hits, maxFinishedJobs+8)
	}

	body := func(id string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, strings.ReplaceAll(e["error"], id, "ID")
	}
	evCode, evBody := body(first.ID)
	unCode, unBody := body("0123456789abcdef")
	if evCode != http.StatusNotFound || evCode != unCode || evBody != unBody {
		t.Fatalf("evicted id: %d %q; unknown id: %d %q; want the same 404", evCode, evBody, unCode, unBody)
	}

	hits := st.Stats().Hits
	again, _ := postJob(t, ts, req)
	waitState(t, ts, again.ID, StateDone)
	if got := st.Stats().Hits; got != hits+1 {
		t.Fatalf("resubmitting an evicted job's request: store hits %d, want %d", got, hits+1)
	}
}
