package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/telemetry"
)

// Metrics is the daemon's observable state, served as JSON at /metrics.
// Counters are atomics updated from worker and handler goroutines; the
// per-policy latency histograms reuse internal/telemetry's power-of-two
// Histogram under a mutex (cell completions are far off the replay hot
// path, so a lock is fine here where it would not be inside the simulator).
type Metrics struct {
	start time.Time

	submitted     atomic.Uint64
	rejectedFull  atomic.Uint64
	rejectedDrain atomic.Uint64
	done          atomic.Uint64
	failed        atomic.Uint64
	cancelled     atomic.Uint64
	panicked      atomic.Uint64
	inflight      atomic.Int64

	cells    atomic.Uint64
	accesses atomic.Uint64

	mu        sync.Mutex
	perPolicy map[string]*telemetry.Histogram // policy label -> cell latency in µs
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), perPolicy: make(map[string]*telemetry.Histogram)}
}

// cellDone records one completed grid cell: its replayed LLC accesses (the
// records/sec numerator) and its time-to-availability since the job
// started, bucketed per policy.
func (m *Metrics) cellDone(c experiments.GridCell, sinceStart time.Duration) {
	m.cells.Add(1)
	m.accesses.Add(c.Accesses)
	m.mu.Lock()
	h, ok := m.perPolicy[c.Policy]
	if !ok {
		h = &telemetry.Histogram{}
		m.perPolicy[c.Policy] = h
	}
	h.Observe(uint64(sinceStart.Microseconds()))
	m.mu.Unlock()
}

// settled counts one terminal job transition under its state's counter.
func (m *Metrics) settled(state State) {
	switch state {
	case StateDone:
		m.done.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	case StateRejected:
		m.rejectedDrain.Add(1)
	}
}

// MetricsSnapshot is the /metrics JSON document.
type MetricsSnapshot struct {
	UptimeSec     float64 `json:"uptime_sec"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	JobsInflight  int64   `json:"jobs_inflight"`
	JobsSubmitted uint64  `json:"jobs_submitted"`
	JobsDone      uint64  `json:"jobs_done"`
	JobsFailed    uint64  `json:"jobs_failed"`
	JobsCancelled uint64  `json:"jobs_cancelled"`
	// JobsPanicked counts grid bodies that panicked (each also counts as
	// failed); the daemon survives every one of them.
	JobsPanicked  uint64 `json:"jobs_panicked"`
	Rejected429   uint64 `json:"rejected_queue_full"`
	RejectedDrain uint64 `json:"rejected_draining"`
	CellsDone     uint64 `json:"cells_done"`
	LLCAccesses   uint64 `json:"llc_accesses"`
	// Store* expose the persistent result store (all zero when the daemon
	// runs without -store): jobs served from disk vs sent to the grid,
	// entries deleted for failing verification, and the store's footprint.
	StoreHits    uint64 `json:"store_hits"`
	StoreMisses  uint64 `json:"store_misses"`
	StoreCorrupt uint64 `json:"store_corrupt"`
	StoreEntries int    `json:"store_entries"`
	StoreBytes   int64  `json:"store_bytes"`
	// Stream* count the Lab's phase streams by origin, from
	// experiments.Lab.StreamCounts: captured through the L1/L2, loaded
	// from the stream cache under the store, written to it, and cache
	// files deleted for failing to load. Without -store every stream is
	// a capture.
	StreamCaptures uint64 `json:"stream_captures"`
	StreamLoads    uint64 `json:"stream_loads"`
	StreamWrites   uint64 `json:"stream_writes"`
	StreamCorrupt  uint64 `json:"stream_corrupt"`
	// RecordsPerSec is replayed LLC accesses per second of daemon uptime —
	// the serving-throughput gauge the ROADMAP's "fast as the hardware
	// allows" goal is tracked by.
	RecordsPerSec float64 `json:"records_per_sec"`
	// PolicyLatencyUS histograms, per policy label, the microseconds from
	// job start to each of that policy's cells becoming available
	// (time-to-result as a client streaming NDJSON would see it).
	PolicyLatencyUS map[string]telemetry.HistogramSnapshot `json:"policy_latency_us"`
}

// Snapshot renders the current metrics.
func (s *Server) Snapshot() MetricsSnapshot {
	m := s.metrics
	up := time.Since(m.start).Seconds()
	sc := s.base.StreamCounts()
	snap := MetricsSnapshot{
		UptimeSec:       up,
		QueueDepth:      s.QueueDepth(),
		QueueCap:        s.cfg.QueueDepth,
		JobsInflight:    m.inflight.Load(),
		JobsSubmitted:   m.submitted.Load(),
		JobsDone:        m.done.Load(),
		JobsFailed:      m.failed.Load(),
		JobsCancelled:   m.cancelled.Load(),
		JobsPanicked:    m.panicked.Load(),
		Rejected429:     m.rejectedFull.Load(),
		RejectedDrain:   m.rejectedDrain.Load(),
		CellsDone:       m.cells.Load(),
		LLCAccesses:     m.accesses.Load(),
		StreamCaptures:  sc.Captures,
		StreamLoads:     sc.Loads,
		StreamWrites:    sc.Writes,
		StreamCorrupt:   sc.Corrupt,
		PolicyLatencyUS: make(map[string]telemetry.HistogramSnapshot),
	}
	if up > 0 {
		snap.RecordsPerSec = float64(snap.LLCAccesses) / up
	}
	if s.store != nil {
		st := s.store.Stats()
		snap.StoreHits = st.Hits
		snap.StoreMisses = st.Misses
		snap.StoreCorrupt = st.Corrupt
		snap.StoreEntries = st.Entries
		snap.StoreBytes = st.Bytes
	}
	m.mu.Lock()
	for name, h := range m.perPolicy {
		snap.PolicyLatencyUS[name] = h.Snapshot()
	}
	m.mu.Unlock()
	return snap
}
