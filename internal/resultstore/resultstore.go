// Package resultstore is a disk-backed, content-addressed store for served
// result manifests: the persistence layer that lets gippr-serve survive
// restarts and serve repeat traffic from storage instead of recompute
// (cold grid -> warm store -> the daemon becomes a read-mostly cache with
// simulation as the miss path).
//
// Keys are result fingerprints — the canonical configuration string a
// manifest is fully determined by — hashed to a filename with SHA-256, so
// equivalent requests collide to one entry and nothing else can. Each entry
// is written with the internal/checkpoint durability recipe: a versioned
// JSON envelope around the payload, temp file + fsync + rename + directory
// fsync, a SHA-256 payload checksum verified on every read, and the full
// fingerprint stored in the envelope so a (cosmically unlikely) key-hash
// collision or a hand-misplaced file is refused rather than served.
//
// The contract the serving layer relies on: Get either returns exactly the
// bytes Put stored, or reports a miss — never bad data. Any entry that
// fails its checksum, does not parse, carries the wrong envelope version,
// or records a different fingerprint is deleted on sight and counted as
// corrupt; the caller recomputes and the next Put heals the entry. Leftover
// temp files from a crash mid-write are swept at Open (the previous
// complete entry, if any, was never touched).
//
// The store is size-bounded: when the sum of entry sizes exceeds the
// configured cap, entries are evicted oldest-modification-time first until
// the store fits. A cap of 0 means unbounded.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gippr/internal/checkpoint"
)

// entrySuffix is the on-disk extension of a committed entry; temp files are
// named "<key>.json.tmp-*" by the checkpoint writer and are never read.
const entrySuffix = ".json"

// Key derives the store filename for a fingerprint: the hex SHA-256 of the
// fingerprint string plus the entry suffix. Exposed so tests and tooling
// can find an entry on disk without re-implementing the derivation.
func Key(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// entry is the in-memory index record for one on-disk file, used for size
// accounting and eviction ordering.
type entry struct {
	size  int64
	mtime time.Time
}

// Stats is a point-in-time snapshot of the store's counters and footprint.
type Stats struct {
	Hits    uint64 // Get served a verified entry
	Misses  uint64 // Get found nothing usable (includes corrupt entries)
	Corrupt uint64 // Get deleted an entry that failed verification
	Entries int    // committed entries currently on disk
	Bytes   int64  // their total size
}

// Store is a content-addressed fingerprint -> payload store rooted at one
// directory. It is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64

	mu    sync.Mutex
	index map[string]entry // filename -> accounting record
	bytes int64
}

// Open opens (creating if needed) the store rooted at dir, sweeps temp
// files left by a crash mid-write, indexes the committed entries, and
// applies the size cap. maxBytes <= 0 means unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, index: make(map[string]entry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: read %s: %w", dir, err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.Contains(name, ".tmp-") {
			// A crash between a temp file's creation and its rename left this; the
			// committed entry (if any) is intact, so the temp is pure garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.index[name] = entry{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get looks up fingerprint and, on a verified hit, unmarshals the stored
// payload into out and returns true. Every other outcome is a miss: a
// missing entry, or an entry that fails its checksum / envelope version /
// fingerprint check — the latter are deleted and counted as corrupt, so
// the store never serves bad data and the next Put repairs the slot.
func (s *Store) Get(fingerprint string, out any) bool {
	name := Key(fingerprint)
	err := checkpoint.Load(filepath.Join(s.dir, name), fingerprint, out)
	switch {
	case err == nil:
		s.hits.Add(1)
		return true
	case errors.Is(err, fs.ErrNotExist):
		s.misses.Add(1)
		return false
	default:
		// Torn, tampered, version-skewed, or fingerprint-mismatched: delete
		// and treat as a miss. The recompute path is always correct.
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.removeEntry(name)
		return false
	}
}

// Put stores payload under fingerprint, atomically replacing any previous
// entry, then applies the size cap (evicting oldest-mtime entries first).
func (s *Store) Put(fingerprint string, payload any) error {
	name := Key(fingerprint)
	path := filepath.Join(s.dir, name)
	if err := checkpoint.Save(path, fingerprint, payload); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("resultstore: stat after save: %w", err)
	}
	s.mu.Lock()
	if old, ok := s.index[name]; ok {
		s.bytes -= old.size
	}
	s.index[name] = entry{size: info.Size(), mtime: info.ModTime()}
	s.bytes += info.Size()
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// removeEntry deletes one on-disk entry and its accounting record.
func (s *Store) removeEntry(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(name)
}

func (s *Store) removeLocked(name string) {
	os.Remove(filepath.Join(s.dir, name))
	if e, ok := s.index[name]; ok {
		s.bytes -= e.size
		delete(s.index, name)
	}
}

// gcLocked enforces the size cap: while the store exceeds maxBytes, evict
// the entry with the oldest modification time (ties broken by filename so
// eviction order is deterministic). Call with mu held.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	names := make([]string, 0, len(s.index))
	for name := range s.index {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		ea, eb := s.index[names[a]], s.index[names[b]]
		if !ea.mtime.Equal(eb.mtime) {
			return ea.mtime.Before(eb.mtime)
		}
		return names[a] < names[b]
	})
	for _, name := range names {
		if s.bytes <= s.maxBytes {
			return
		}
		s.removeLocked(name)
	}
}

// Stats snapshots the store's counters and current footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Entries: entries,
		Bytes:   bytes,
	}
}
