// Package checkpoint provides crash-safe snapshot files for the long-running
// search and evaluation tools (gippr-evolve's multi-hour -bake pipeline in
// particular). A checkpoint is a small versioned JSON envelope around a
// caller-defined payload, written atomically — temp file in the same
// directory, fsync, rename, directory fsync — so a crash, OOM kill or power
// loss at any instant leaves either the previous complete snapshot or the
// new complete snapshot on disk, never a torn file. The payload carries a
// SHA-256 checksum (detects silent corruption) and a caller-supplied config
// fingerprint (refuses to resume a run under a different configuration,
// which would silently break the bit-identical-resume guarantee). The
// atomic write itself is WriteFile, which other outputs that must never be
// torn (the telemetry manifests) share.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// Version is the envelope format version. Bump it when the envelope schema
// changes incompatibly; payload schema changes are the caller's concern and
// belong in the fingerprint.
const Version = 1

// ErrFingerprint marks a checkpoint written under a different configuration
// than the one trying to resume from it. Resuming anyway would not be
// bit-identical, so callers must treat this as "start fresh or fix flags",
// never "ignore".
var ErrFingerprint = errors.New("checkpoint: config fingerprint mismatch")

// ErrCorrupt marks a checkpoint whose payload fails its checksum or whose
// envelope does not parse: the file was torn or tampered with outside the
// atomic-write protocol.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// envelope is the on-disk shape.
type envelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	SHA256      string          `json:"sha256"`
	Payload     json.RawMessage `json:"payload"`
}

// Save atomically replaces the snapshot at path with payload, recording
// fingerprint for the resume-compatibility check. It writes through
// WriteFile, so readers concurrently calling Load see either the old or the
// new snapshot in full.
func Save(path, fingerprint string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	sum := sha256.Sum256(raw)
	data, err := json.MarshalIndent(envelope{
		Version:     Version,
		Fingerprint: fingerprint,
		SHA256:      hex.EncodeToString(sum[:]),
		Payload:     raw,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	if err := WriteFile(path, append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile atomically replaces the file at path with data: temp file in
// path's directory, write, fsync, rename over path, best-effort directory
// fsync. A crash at any instant leaves either the previous file or the new
// one in full, never a torn file, and a failed write removes its temp
// file. The file gets the mode os.WriteFile(path, data, 0o644) gives a new
// file, umask applied. Temp names are path + ".tmp-" + a random suffix, so
// a directory owner can sweep the ones a crash left behind.
func WriteFile(path string, data []byte) error {
	tmp, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure below, remove the temp so aborted writes don't pile up;
	// the previous file at path is untouched either way.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%s: %w", step, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write temp", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync temp", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close temp", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("rename into place: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// createTemp creates a new temp file beside path as os.CreateTemp does,
// but with os.WriteFile's 0o644 rather than CreateTemp's 0o600.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp-" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// syncDir makes the rename durable by fsyncing the containing directory.
// Best-effort: some platforms (and some filesystems) reject directory
// fsync, and the rename's atomicity does not depend on it.
func syncDir(dir string) {
	if runtime.GOOS == "windows" {
		return
	}
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Load reads the snapshot at path, verifies its envelope version, payload
// checksum, and config fingerprint, and unmarshals the payload into out.
// It returns an error wrapping fs.ErrNotExist when no snapshot exists,
// ErrCorrupt for torn/invalid files, and ErrFingerprint when the snapshot
// was written under a different configuration.
func Load(path, fingerprint string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: read: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: %s: envelope does not parse: %v", ErrCorrupt, path, err)
	}
	if env.Version != Version {
		return fmt.Errorf("checkpoint: %s: envelope version %d, this build reads %d",
			path, env.Version, Version)
	}
	// The envelope is written indented, which re-indents the embedded
	// payload; compact it back to the canonical form the checksum was
	// computed over.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return fmt.Errorf("%w: %s: payload does not compact: %v", ErrCorrupt, path, err)
	}
	sum := sha256.Sum256(compact.Bytes())
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, path)
	}
	if env.Fingerprint != fingerprint {
		return fmt.Errorf("%w: snapshot %s was written by a run configured as\n  %s\nbut this run is configured as\n  %s\nresuming would not be bit-identical; delete the checkpoint or restore the original flags",
			ErrFingerprint, path, env.Fingerprint, fingerprint)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("checkpoint: %s: payload does not parse: %w", path, err)
	}
	return nil
}
