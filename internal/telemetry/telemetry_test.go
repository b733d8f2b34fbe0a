package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{64, 1 << 63, math.MaxUint64},
	}
	for _, c := range cases {
		lo, hi := BucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("BucketBounds(%d) = [%d, %d], want [%d, %d]", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	vals := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, math.MaxUint64}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
	if h.Max() != math.MaxUint64 {
		t.Errorf("Max = %d, want MaxUint64", h.Max())
	}
	// Every observation must land in the bucket whose bounds contain it.
	var total uint64
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		for _, v := range vals {
			if v >= lo && v <= hi {
				continue
			}
		}
		total += h.Bucket(i)
	}
	if total != uint64(len(vals)) {
		t.Errorf("bucket counts sum to %d, want %d", total, len(vals))
	}
	if h.Bucket(0) != 1 { // only the value 0
		t.Errorf("bucket 0 = %d, want 1", h.Bucket(0))
	}
	if h.Bucket(2) != 2 { // values 2, 3
		t.Errorf("bucket 2 = %d, want 2", h.Bucket(2))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := uint64(0); v < 100; v++ {
		a.Observe(v)
		b.Observe(v * 10)
	}
	want := a.Count() + b.Count()
	wantSum := a.Sum() + b.Sum()
	a.Merge(&b)
	if a.Count() != want || a.Sum() != wantSum {
		t.Errorf("after merge: count %d sum %d, want %d / %d", a.Count(), a.Sum(), want, wantSum)
	}
	if a.Max() != 990 {
		t.Errorf("after merge: max %d, want 990", a.Max())
	}
}

// TestNilSinkSafe: every event method must be a no-op on a nil sink — this
// is the contract the uninstrumented hot path relies on.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	s.Attach(64)
	s.Hit(0)
	s.Miss()
	s.Evict(0, true)
	s.Fill(0)
	s.Bypass()
	s.Insert(3)
	s.Promote(5, 1)
	s.Vote(2)
	s.Reset()
	s.Merge(&Sink{})
	(&Sink{}).Merge(s)
	if s.Accesses() != 0 {
		t.Error("nil sink reported accesses")
	}
	if r := s.Report(); r.Accesses != 0 {
		t.Error("nil sink reported a non-zero report")
	}
}

func TestSinkEventAccounting(t *testing.T) {
	var s Sink
	s.Attach(4)
	// Access pattern on a tiny 1-set, 4-way "cache": fill 0..3, hit 0,
	// evict line 1 (dirty), refill it, bypass one miss.
	for i := 0; i < 4; i++ {
		s.Miss()
		s.Fill(i)
	}
	s.Hit(0)
	s.Miss()
	s.Evict(1, true)
	s.Fill(1)
	s.Miss()
	s.Bypass()

	if got := s.Accesses(); got != 7 {
		t.Errorf("Accesses = %d, want 7", got)
	}
	if s.Hits.Load() != 1 || s.Misses.Load() != 6 {
		t.Errorf("hits/misses = %d/%d, want 1/6", s.Hits.Load(), s.Misses.Load())
	}
	if s.Evictions.Load() != 1 || s.Writebacks.Load() != 1 || s.Bypasses.Load() != 1 {
		t.Errorf("evict/wb/bypass = %d/%d/%d, want 1/1/1",
			s.Evictions.Load(), s.Writebacks.Load(), s.Bypasses.Load())
	}
	// The hit on line 0 came 5 accesses after its fill at tick 1.
	if s.HitReuse.Count() != 1 || s.HitReuse.Sum() != 4 {
		t.Errorf("HitReuse count/sum = %d/%d, want 1/4", s.HitReuse.Count(), s.HitReuse.Sum())
	}
	// Line 1 was filled at tick 2 and evicted at tick 6: age = life = 4.
	if s.EvictAge.Sum() != 4 || s.EvictLife.Sum() != 4 {
		t.Errorf("EvictAge/EvictLife sums = %d/%d, want 4/4", s.EvictAge.Sum(), s.EvictLife.Sum())
	}
}

func TestSinkResetPreservesClocks(t *testing.T) {
	var s Sink
	s.Attach(2)
	s.Miss()
	s.Fill(0)
	s.Reset()
	if s.Misses.Load() != 0 || s.Fills.Load() != 0 {
		t.Fatal("Reset did not zero counters")
	}
	// A hit after the reset must still see a correct reuse interval
	// relative to the pre-reset fill.
	s.Hit(0)
	if s.HitReuse.Count() != 1 || s.HitReuse.Sum() != 1 {
		t.Errorf("post-reset reuse interval = %d (count %d), want 1 (1)",
			s.HitReuse.Sum(), s.HitReuse.Count())
	}
}

func TestSinkMerge(t *testing.T) {
	var a, b Sink
	a.Miss()
	a.Insert(3)
	a.Vote(1)
	b.Miss()
	b.Miss()
	b.Insert(5)
	b.Vote(1)
	b.Vote(7)
	a.Merge(&b)
	if a.Misses.Load() != 3 || a.Insertions.Load() != 2 {
		t.Errorf("merged misses/insertions = %d/%d, want 3/2", a.Misses.Load(), a.Insertions.Load())
	}
	if a.Votes[1].Load() != 2 || a.Votes[7].Load() != 1 {
		t.Errorf("merged votes = %v", a.Votes)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	var s Sink
	s.Attach(8)
	for i := 0; i < 8; i++ {
		s.Miss()
		s.Fill(i)
		s.Insert(i)
	}
	s.Hit(3)
	s.Promote(7, 0)
	s.Vote(2)

	m := &Manifest{
		Tool:        "test",
		Fingerprint: "fp|v1",
		Cache:       CacheGeometry{Name: "L3", SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64, Sets: 4096},
		Records:     1000,
		WarmFrac:    1.0 / 3,
		Entries:     []Entry{{Workload: "w", Policy: "p", MPKI: 1.5, LLC: s.Report()}},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion || got.Tool != "test" || got.Fingerprint != "fp|v1" {
		t.Errorf("round-trip header mismatch: %+v", got)
	}
	if len(got.Entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(got.Entries))
	}
	e := got.Entries[0]
	if e.LLC.Misses != 8 || e.LLC.Hits != 1 || e.LLC.Insertions != 8 || e.LLC.Promotions != 1 {
		t.Errorf("entry counters mismatch: %+v", e.LLC)
	}
	if e.LLC.Votes["2"] != 1 {
		t.Errorf("votes = %v, want {2:1}", e.LLC.Votes)
	}
	if e.LLC.InsertPos.Count != 8 {
		t.Errorf("InsertPos count = %d, want 8", e.LLC.InsertPos.Count)
	}
}

// TestManifestWriteFileMode: a manifest lands with the mode a plain
// os.WriteFile(…, 0o644) gives a new file in the same directory, whatever
// the umask, and its atomic write leaves no temp file behind.
func TestManifestWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	if err := os.WriteFile(ref, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := (&Manifest{Tool: "test"}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Errorf("manifest mode %v, os.WriteFile gives %v", got.Mode(), want.Mode())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only ref.json and manifest.json", names)
	}
}

func TestManifestVersionCheck(t *testing.T) {
	var buf bytes.Buffer
	m := &Manifest{Tool: "t"}
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["version"] != float64(ManifestVersion) {
		t.Errorf("encoded version = %v, want %d", decoded["version"], ManifestVersion)
	}
	// A future-versioned file must be refused.
	path := filepath.Join(t.TempDir(), "m.json")
	bad := &Manifest{Version: ManifestVersion + 1, Tool: "t"}
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("ReadManifest accepted a future manifest version")
	}
}

func TestHistogramEach(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(1)
	h.Observe(5)
	h.Observe(1000)

	var got []struct {
		bucket        int
		lo, hi, count uint64
	}
	h.Each(func(bucket int, lo, hi, count uint64) {
		got = append(got, struct {
			bucket        int
			lo, hi, count uint64
		}{bucket, lo, hi, count})
	})
	prev := -1
	var total uint64
	for _, b := range got {
		if b.bucket <= prev {
			t.Fatalf("Each not in ascending bucket order: %d after %d", b.bucket, prev)
		}
		prev = b.bucket
		if b.count == 0 {
			t.Fatalf("Each visited empty bucket %d", b.bucket)
		}
		lo, hi := BucketBounds(b.bucket)
		if lo != b.lo || hi != b.hi {
			t.Fatalf("bucket %d bounds (%d,%d) != BucketBounds (%d,%d)", b.bucket, b.lo, b.hi, lo, hi)
		}
		total += b.count
	}
	if total != 5 {
		t.Fatalf("Each covered %d observations, want 5", total)
	}
	// Value 0 lands in bucket 0, value 1 in bucket 1: the two singleton buckets.
	if got[0].bucket != 0 || got[0].count != 1 || got[1].bucket != 1 || got[1].count != 2 {
		t.Fatalf("low buckets wrong: %+v", got[:2])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", q)
	}

	// 90 observations of value 1, 10 of value 1000: p50 bounds to bucket(1),
	// p99 bounds to bucket(1000) capped at the observed max.
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if q := h.Quantile(0.50); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000 (bucket upper bound capped at max)", q)
	}
	// Clamping: out-of-range q behaves as the endpoints.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Error("q is not clamped to [0, 1]")
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 = %d, want max 1000", q)
	}
}

func TestSnapshotQuantilesMirrorHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 7, 8, 100, 5000, 5000, 70000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.P50 != h.Quantile(0.50) || s.P90 != h.Quantile(0.90) || s.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot quantile summary (%d/%d/%d) != live (%d/%d/%d)",
			s.P50, s.P90, s.P99, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if s.Quantile(q) != h.Quantile(q) {
			t.Errorf("snapshot Quantile(%v) = %d, live = %d", q, s.Quantile(q), h.Quantile(q))
		}
	}
	var fromSnap, fromLive []BucketSnapshot
	s.Each(func(b BucketSnapshot) { fromSnap = append(fromSnap, b) })
	h.Each(func(_ int, lo, hi, c uint64) { fromLive = append(fromLive, BucketSnapshot{Lo: lo, Hi: hi, Count: c}) })
	if len(fromSnap) != len(fromLive) {
		t.Fatalf("snapshot Each visited %d buckets, live %d", len(fromSnap), len(fromLive))
	}
	for i := range fromSnap {
		if fromSnap[i] != fromLive[i] {
			t.Errorf("bucket %d: snapshot %+v != live %+v", i, fromSnap[i], fromLive[i])
		}
	}
}

func TestManifestV1StillReadable(t *testing.T) {
	// A v1 file (no quantile summary) must decode under the v2 reader, with
	// the quantile fields recomputable from the serialized buckets.
	path := filepath.Join(t.TempDir(), "v1.json")
	old := &Manifest{Version: 1, Tool: "t", Entries: []Entry{{
		Workload: "w", Policy: "p",
		LLC: Report{HitReuse: HistogramSnapshot{
			Count: 3, Sum: 12, Max: 8, Mean: 4,
			Buckets: []BucketSnapshot{{Lo: 2, Hi: 3, Count: 1}, {Lo: 4, Hi: 7, Count: 1}, {Lo: 8, Hi: 15, Count: 1}},
		}},
	}}}
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("v1 manifest refused: %v", err)
	}
	hr := got.Entries[0].LLC.HitReuse
	if hr.P50 != 0 || hr.P90 != 0 {
		t.Errorf("v1 decode invented quantile fields: %+v", hr)
	}
	if q := hr.Quantile(0.5); q != 7 {
		t.Errorf("recomputed p50 = %d, want 7 (second bucket's bound)", q)
	}
	// Below the floor is refused like above the ceiling. (Encode back-fills
	// a zero version, so write the raw bytes directly.)
	if err := os.WriteFile(path, []byte(`{"version": 0, "tool": "t"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("ReadManifest accepted manifest version 0")
	}
}
