package serve

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// fuzzServer builds one shared Server for the fuzz workers: resolve only
// reads the registry, the workload suite, and the cache geometry, so one
// instance validates every input.
var fuzzServer = sync.OnceValue(func() *Server {
	return New(Config{Scale: testScale, Workers: 1, QueueDepth: 1})
})

// FuzzSubmitRequest fuzzes the job-submission boundary: the JSON decoder
// plus resolve, the exact pair every POST /v1/jobs body flows through.
// The contract under fuzz: arbitrary bytes never panic and never map to
// anything but 400 — a submission either resolves into a well-formed job
// or is the client's fault, with no input reaching a 5xx or a crash.
func FuzzSubmitRequest(f *testing.F) {
	f.Add([]byte(`{"workloads": ["mcf_like"], "policies": ["lru", "plru"]}`))
	f.Add([]byte(`{"workloads": ["all"], "sample": 4, "timeout_sec": 1.5}`))
	f.Add([]byte(`{"ipv": "[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]", "exact": true}`))
	f.Add([]byte(`{"policies": []}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"unknown_field": true}`))
	f.Add([]byte(`{"workloads": "mcf_like"}`))
	f.Add([]byte(`{"sample": -1}`))
	f.Add([]byte(`{"sample": 99999}`))
	f.Add([]byte(`{"timeout_sec": -3}`))
	f.Add([]byte(`{"timeout_sec": 1e308}`))
	f.Add([]byte(`{"ipv": "[ not a vector ]"}`))
	f.Add([]byte(`{"policies": ["` + strings.Repeat("x", 4096) + `"]}`))
	f.Add([]byte(`{"workloads": [` + strings.Repeat(`"a",`, 2000) + `"a"]}`))
	f.Add([]byte(`{"exact": true}`))
	f.Add([]byte(`{"workloads": ["mcf_like"], "sweep": {"min_sets": 1024, "max_sets": 4096, "max_ways": 4, "plru": [{"sets": 4096, "ways": 16}]}}`))
	f.Add([]byte(`{"workloads": ["mcf_like"], "explain": {"policy_a": "lru", "policy_b": "plru"}}`))
	f.Add([]byte(`{"sweep": {"min_sets": 64, "max_sets": 64, "max_ways": 2}, "explain": {"policy_a": "lru", "policy_b": "plru"}}`))
	f.Add([]byte(`{"explain": {"policy_a": "lru", "policy_b": "plru"}, "sample": 2}`))
	f.Add([]byte(`{"workloads": ["mcf_like"], "sweep": {"min_sets": 8589934592, "max_sets": 8589934592, "max_ways": 1}}`))
	f.Add([]byte(`{"workloads": ["mcf_like"], "sweep": {"min_sets": 1024, "max_sets": 4096, "max_ways": 4, "plru": [{"sets": 8589934592, "ways": 16}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			if got := StatusOf(err); got != http.StatusBadRequest {
				t.Fatalf("decode error %v maps to HTTP %d, want 400", err, got)
			}
			return
		}
		if _, err := fuzzServer().resolve(req); err != nil {
			if got := StatusOf(err); got != http.StatusBadRequest {
				t.Fatalf("resolve error %v maps to HTTP %d, want 400", err, got)
			}
		}
	})
}
