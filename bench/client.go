package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client drives one daemon through the v1 wire API only, so the benchmark
// holds however the daemon is built behind it. Its transport opens at most
// conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobTimeout bounds one job cycle; a cold full-suite grid takes seconds.
const jobTimeout = 150 * time.Second

// jobRun is one completed job cycle: POST, the NDJSON trailer, and the
// result read in full. Durations are offsets from the POST being sent.
type jobRun struct {
	ID       string
	Sent     time.Time
	Accepted time.Duration // 202 received
	Trailer  time.Duration // {"state":"done"} read
	Done     time.Duration // result body read: the job's latency
	Result   []byte
	Status   *jobStatus // the job's own timestamps, when asked for
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// job runs one request cycle against path (/v1/jobs or /v1/explain). A
// refusal, a terminal state other than done, or a timeout is an error.
// With withStatus the job's status document is fetched afterwards.
func (c *client) job(ctx context.Context, path string, body []byte, withStatus bool) (jobRun, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var r jobRun
	r.Sent = time.Now()
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return r, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = decodeBody(resp, http.StatusAccepted, &accepted)
	r.Accepted = time.Since(r.Sent)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	r.ID = accepted.ID
	stream, err := c.get(ctx, "/v1/jobs/"+r.ID+"/stream")
	if err != nil {
		return r, err
	}
	r.Trailer = time.Since(r.Sent)
	if state := trailerState(stream); state != "done" {
		return r, fmt.Errorf("job %s ended %q", r.ID, state)
	}
	if r.Result, err = c.get(ctx, "/v1/jobs/"+r.ID+"/result"); err != nil {
		return r, err
	}
	r.Done = time.Since(r.Sent)
	if withStatus {
		b, err := c.get(ctx, "/v1/jobs/"+r.ID)
		if err != nil {
			return r, err
		}
		r.Status = new(jobStatus)
		if err := json.Unmarshal(b, r.Status); err != nil {
			return r, fmt.Errorf("decode status: %w", err)
		}
	}
	return r, nil
}

// trailerState returns the state named by an NDJSON stream's last line.
func trailerState(stream []byte) string {
	stream = bytes.TrimRight(stream, "\n")
	last := stream[bytes.LastIndexByte(stream, '\n')+1:]
	var t struct {
		State string `json:"state"`
	}
	if json.Unmarshal(last, &t) != nil {
		return ""
	}
	return t.State
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, nil
}

// get reads a 200 response body in full.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// decodeBody checks the status and decodes the JSON body into v.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// memStats is the part of runtime.MemStats the benchmark reads from the
// daemon's /debug/vars.
type memStats struct {
	TotalAlloc    uint64  `json:"TotalAlloc"`
	HeapInuse     uint64  `json:"HeapInuse"`
	NumGC         uint32  `json:"NumGC"`
	GCCPUFraction float64 `json:"GCCPUFraction"`
}

func (c *client) memStats(ctx context.Context) (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	body, err := c.get(ctx, "/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return memStats{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.MemStats, nil
}
