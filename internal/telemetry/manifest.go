package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gippr/internal/checkpoint"
)

// ManifestVersion identifies the manifest schema; bump it on incompatible
// changes so downstream consumers can refuse files they do not understand.
// Version 2 added the histogram quantile summary (P50/P90/P99) to every
// HistogramSnapshot; version-1 files remain readable (the quantile fields
// simply decode as zero and can be recomputed via Quantile).
const ManifestVersion = 2

// manifestVersionPrev is the oldest schema ReadManifest still accepts.
const manifestVersionPrev = 1

// BucketSnapshot is one non-empty histogram bucket in a manifest: the
// inclusive value range it covers and its count.
type BucketSnapshot struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram exported for a manifest. Only non-empty
// buckets are serialized. The quantile fields (manifest v2) summarize the
// distribution to within a power-of-two bucket; Quantile recomputes any
// other point from the buckets, so consumers never need the raw slice.
type HistogramSnapshot struct {
	Count   uint64           `json:"count"`
	Sum     uint64           `json:"sum"`
	Max     uint64           `json:"max"`
	Mean    float64          `json:"mean"`
	P50     uint64           `json:"p50,omitempty"`
	P90     uint64           `json:"p90,omitempty"`
	P99     uint64           `json:"p99,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot exports the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.n, Sum: h.sum, Max: h.max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	h.Each(func(_ int, lo, hi, c uint64) {
		s.Buckets = append(s.Buckets, BucketSnapshot{Lo: lo, Hi: hi, Count: c})
	})
	return s
}

// Each calls f for every serialized (non-empty) bucket in ascending value
// order — the stable iteration API mirroring Histogram.Each for consumers
// that hold a decoded manifest rather than a live histogram.
func (s HistogramSnapshot) Each(f func(b BucketSnapshot)) {
	for _, b := range s.Buckets {
		f(b)
	}
}

// Quantile returns an upper bound on the q-quantile of the snapshotted
// distribution, following the Histogram.Quantile contract (clamped q, 0 on
// empty, exact to within the bucket's factor of two, capped at Max).
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if float64(cum) >= target && cum > 0 {
			hi := b.Hi
			if hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Report is a Sink exported for a manifest.
type Report struct {
	Accesses   uint64 `json:"accesses"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
	Bypasses   uint64 `json:"bypasses"`
	Fills      uint64 `json:"fills"`
	Insertions uint64 `json:"insertions"`
	Promotions uint64 `json:"promotions"`

	InsertPos   HistogramSnapshot `json:"insert_pos"`
	PromoteFrom HistogramSnapshot `json:"promote_from"`
	PromoteTo   HistogramSnapshot `json:"promote_to"`
	PromoteDist HistogramSnapshot `json:"promote_dist"`
	HitReuse    HistogramSnapshot `json:"hit_reuse"`
	EvictAge    HistogramSnapshot `json:"evict_age"`
	EvictLife   HistogramSnapshot `json:"evict_life"`

	// Votes maps candidate-policy index to leader-miss votes; empty when
	// the policy does not duel.
	Votes map[string]uint64 `json:"votes,omitempty"`
}

// Report exports the sink.
func (s *Sink) Report() Report {
	if s == nil {
		return Report{}
	}
	r := Report{
		Accesses:    s.Accesses(),
		Hits:        s.Hits.Load(),
		Misses:      s.Misses.Load(),
		Evictions:   s.Evictions.Load(),
		Writebacks:  s.Writebacks.Load(),
		Bypasses:    s.Bypasses.Load(),
		Fills:       s.Fills.Load(),
		Insertions:  s.Insertions.Load(),
		Promotions:  s.Promotions.Load(),
		InsertPos:   s.InsertPos.Snapshot(),
		PromoteFrom: s.PromoteFrom.Snapshot(),
		PromoteTo:   s.PromoteTo.Snapshot(),
		PromoteDist: s.PromoteDist.Snapshot(),
		HitReuse:    s.HitReuse.Snapshot(),
		EvictAge:    s.EvictAge.Snapshot(),
		EvictLife:   s.EvictLife.Snapshot(),
	}
	for i, v := range s.Votes {
		if v > 0 {
			if r.Votes == nil {
				r.Votes = make(map[string]uint64, len(s.Votes))
			}
			r.Votes[fmt.Sprintf("%d", i)] = v.Load()
		}
	}
	return r
}

// CacheGeometry describes the cache a manifest's telemetry was collected
// on. It mirrors cache.Config's fields (telemetry cannot import cache —
// cache imports telemetry).
type CacheGeometry struct {
	Name       string `json:"name"`
	SizeBytes  int    `json:"size_bytes"`
	Ways       int    `json:"ways"`
	BlockBytes int    `json:"block_bytes"`
	Sets       int    `json:"sets"`
	// SampleShift and SampledSets record the set-sampling configuration a
	// manifest's numbers were estimated under; both absent (zero) for a
	// full-fidelity run.
	SampleShift uint `json:"sample_shift,omitempty"`
	SampledSets int  `json:"sampled_sets,omitempty"`
}

// Entry is one (workload, policy) cell of a manifest.
type Entry struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	MPKI     float64 `json:"mpki"`
	LLC      Report  `json:"llc"`
}

// Manifest is the JSON run manifest a -telemetry flag dumps: enough
// configuration to reproduce the run, plus per-(workload, policy)
// event-level telemetry of the LLC under study. gippr-report and external
// tooling consume it instead of re-parsing ASCII tables.
type Manifest struct {
	Version     int           `json:"version"`
	Tool        string        `json:"tool"`
	Fingerprint string        `json:"fingerprint"`
	Cache       CacheGeometry `json:"cache"`
	Records     int           `json:"records_per_phase"`
	WarmFrac    float64       `json:"warm_frac"`
	Entries     []Entry       `json:"entries"`
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest through checkpoint.WriteFile, so a crashed
// or interrupted run never leaves a torn manifest for tooling to choke on,
// and the manifest gets the mode any new output file gets (0o644 before the
// umask).
func (m *Manifest) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return fmt.Errorf("telemetry: encode %s: %w", path, err)
	}
	if err := checkpoint.WriteFile(path, buf.Bytes()); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("telemetry: parse %s: %w", path, err)
	}
	if m.Version < manifestVersionPrev || m.Version > ManifestVersion {
		return nil, fmt.Errorf("telemetry: %s: manifest version %d, want %d..%d",
			path, m.Version, manifestVersionPrev, ManifestVersion)
	}
	return &m, nil
}
