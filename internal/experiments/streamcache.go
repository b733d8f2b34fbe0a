package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"gippr/internal/cache"
	"gippr/internal/ga"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/workload"
)

// streamVersion names the generation and capture code in every stream key.
// Bump it whenever a change to the workload generators, phaseSeed, the
// L1/L2 models or cache.CaptureLLC could change a captured stream: a stream
// file under an older version then no longer matches any key, and the next
// capture rewrites it.
const streamVersion = "v1"

// streamSet is a lab's LLC streams: the per-workload memo, shared by
// pointer with every WithSampling view, and the on-disk stream cache
// behind it. The counters count phases, never records.
type streamSet struct {
	memo memo[[]ga.Stream]
	// dir holds the stream cache, one file per phase key; "" turns the
	// cache off.
	dir                              string
	captures, loads, writes, corrupt atomic.Uint64
}

// StreamCounts counts a lab's phase streams by where they came from.
type StreamCounts struct {
	Captures uint64 // generated and captured through the L1/L2
	Loads    uint64 // loaded from the stream cache instead
	Writes   uint64 // written to the stream cache after a capture
	Corrupt  uint64 // cache files that failed to load and were deleted
}

// SetStreamDir turns on the on-disk stream cache in dir ("" turns it off)
// and returns the lab for chaining. Set it before the lab builds a stream;
// WithSampling views share it with their lab. A phase's stream is written
// on its second capture in dir, so a directory used once holds only
// zero-byte markers; every later capture of that phase loads the file.
// The cache never fails a build: a file that does not load is deleted and
// the phase captured, and every write error is ignored.
func (l *Lab) SetStreamDir(dir string) *Lab {
	l.streams.dir = dir
	return l
}

// StreamDir returns the stream cache directory, "" when it is off.
func (l *Lab) StreamDir() string { return l.streams.dir }

// StreamCounts returns how the lab's phase streams were built so far.
func (l *Lab) StreamCounts() StreamCounts {
	s := l.streams
	return StreamCounts{
		Captures: s.captures.Load(),
		Loads:    s.loads.Load(),
		Writes:   s.writes.Load(),
		Corrupt:  s.corrupt.Load(),
	}
}

// streamKey names everything one phase's captured stream depends on: the
// code version, the workload and phase, the phase's generator seed, its
// record budget, and the L1 and L2 geometry. The LLC under study, its set
// sampling and the warm-up fraction are not in it, because the capture
// never sees them.
func streamKey(name string, phase, records int) string {
	geo := func(c cache.Config) string {
		return fmt.Sprintf("%s;size=%d;ways=%d;block=%d;sets=%d", c.Name, c.SizeBytes, c.Ways, c.BlockBytes, c.Sets())
	}
	return fmt.Sprintf("gippr-stream|%s|workload=%s|phase=%d|seed=%016x|records=%d|l1=%s|l2=%s",
		streamVersion, name, phase, phaseSeed(name, phase), records, geo(cache.L1Config), geo(cache.L2Config))
}

// streamBase is the path, less its extension, of key's files in dir: the
// key's SHA-256 in hex. The data file adds ".llc" and the marker ".seen".
func streamBase(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:]))
}

// capture generates one phase of w and pushes it through a fresh
// LRU-managed L1/L2, returning the references that reach the LLC.
func (l *Lab) capture(w workload.Workload, phase int) []trace.Record {
	l.streams.captures.Add(1)
	// The capture has no L3: the stream is what misses L1 and L2, so the
	// LLC under study (its policy and its sampling) cannot change it.
	lru := func(cfg cache.Config) *cache.Cache {
		return cache.New(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
	}
	src := &workload.Limit{Src: w.Phases[phase].Source(phaseSeed(w.Name, phase)), N: uint64(l.Scale.PhaseRecords)}
	// The LLC stream is bounded by the source's record budget; reserving
	// it up front removes every regrowth copy from the capture loop.
	recs := cache.CaptureLLC(src, lru(cache.L1Config), lru(cache.L2Config), l.Scale.PhaseRecords)
	// The budget is an upper bound. L1/L2 filter out only some
	// references (at default scale 72% of the suite's reach the LLC,
	// 95% on the benchmark's probe workloads), so the copy below runs
	// only for streams well under it: the stream lives for the lab's
	// lifetime, and a large unused tail is not worth pinning.
	if cap(recs) > len(recs)+len(recs)/4 {
		recs = append(make([]trace.Record, 0, len(recs)), recs...)
	}
	return recs
}

// phaseStream returns one phase's LLC stream. With the stream cache on it
// loads the phase's file when one holds it; otherwise it captures, and
// then writes the file if a marker shows an earlier capture of the same
// key in the directory, or leaves the marker if none does. Writing only on
// a second capture keeps a daemon that runs once in a directory (every
// benchmark set-up) from paying for writes that nothing would read.
func (l *Lab) phaseStream(w workload.Workload, phase int) []trace.Record {
	s := l.streams
	if s.dir == "" {
		return l.capture(w, phase)
	}
	key := streamKey(w.Name, phase, l.Scale.PhaseRecords)
	base := streamBase(s.dir, key)
	data, marker := base+".llc", base+".seen"
	recs, err := trace.ReadStreamFile(data, key, l.Scale.PhaseRecords)
	if err == nil {
		s.loads.Add(1)
		return recs
	}
	if errors.Is(err, trace.ErrCorruptStream) {
		s.corrupt.Add(1)
		os.Remove(data) //nolint:errcheck // a file that stays is refused again
	}
	recs = l.capture(w, phase)
	if _, err := os.Stat(marker); err == nil {
		if trace.WriteStreamFile(data, key, recs) == nil {
			s.writes.Add(1)
		}
	} else if os.MkdirAll(s.dir, 0o755) == nil {
		os.WriteFile(marker, nil, 0o644) //nolint:errcheck // a lost marker only delays the write
	}
	return recs
}
