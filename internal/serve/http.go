package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gippr/internal/runctx"
)

// StatusOf maps the service's error vocabulary to HTTP statuses: the typed
// input sentinels (bad geometry/shift, unknown policy or workload, bad
// vector) are the client's fault (400), a missing job is 404, a result
// requested before completion is 409, a full queue is 429, draining is 503,
// and anything else is a 500.
func StatusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrPanic):
		// Checked before ErrNotDone: a panicked job's result carries both
		// sentinels, and a panic is a server fault, not a client conflict.
		return http.StatusInternalServerError
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case runctx.UsageError(err):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report to
}

// writeError writes an error response; backpressure statuses carry a
// Retry-After hint so well-behaved clients wait instead of hammering.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		secs := int(s.cfg.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Handler returns the daemon's HTTP surface: the /v1 job API, /metrics,
// /healthz, and the runctx debug suite (/debug/vars with the live progress
// gauges, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	runctx.AttachDebug(mux, s.prog)
	return mux
}

// decodeJobRequest parses a submission body with unknown fields rejected
// (a typo must not silently no-op). Shared by the HTTP handler and the
// submission fuzz target, so the fuzzer exercises exactly the production
// decode path.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// Both %w verbs matter: ErrBadRequest drives the 400 mapping, and
		// the original error keeps *http.MaxBytesError reachable for the
		// handler's 413 branch.
		return JobRequest{}, fmt.Errorf("%w: bad request body: %w", ErrBadRequest, err)
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submitHTTP(w, r, nil)
}

// handleExplain is the explain-job front door: the same queue, body cap,
// and decode path as /v1/jobs, but the submission must carry an explain
// spec — posting a grid or sweep body here is a 400, so the endpoint's
// responses are always explanation-shaped.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.submitHTTP(w, r, func(req JobRequest) error {
		if req.Explain == nil {
			return fmt.Errorf("%w: /v1/explain requires an explain spec naming policy_a and policy_b", ErrBadRequest)
		}
		return nil
	})
}

// submitHTTP is the shared submission body behind /v1/jobs and
// /v1/explain; check, when non-nil, gates the decoded request before it
// enters the queue.
func (s *Server) submitHTTP(w http.ResponseWriter, r *http.Request, check func(JobRequest) error) {
	// The body cap turns a multi-gigabyte submission into a 413 after at
	// most MaxBodyBytes read, instead of an OOM; MaxBytesReader also closes
	// the connection so the client stops sending.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := decodeJobRequest(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		s.writeError(w, err)
		return
	}
	if check != nil {
		if err := check(req); err != nil {
			s.writeError(w, err)
			return
		}
	}
	job, err := s.Submit(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.Result(job)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleStream serves NDJSON: one GridCell object per line as each cell
// settles — or, for explain jobs, one explain.Explanation per workload as
// it settles — then a single trailer line {"state": "..."} once the job
// reaches a terminal state (neither shape carries a "state" key, so the
// lines are unambiguous). A client that connects after completion gets
// every line followed by the trailer immediately.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	i := 0
	for {
		items, ch, state := job.snapshotFrom(i)
		for _, it := range items {
			if err := enc.Encode(it); err != nil {
				return // client went away
			}
		}
		i += len(items)
		if flusher != nil && len(items) > 0 {
			flusher.Flush()
		}
		if state.Terminal() {
			enc.Encode(map[string]State{"state": state}) //nolint:errcheck // final line, best effort
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
