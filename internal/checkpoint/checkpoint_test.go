package checkpoint

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Gen  int       `json:"gen"`
	RNG  uint64    `json:"rng"`
	Fits []float64 `json:"fits"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ga.ckpt")
	in := payload{Gen: 7, RNG: 0xdeadbeefcafef00d, Fits: []float64{1.0312345678901234, 0.97}}
	if err := Save(path, "fp-v1", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "fp-v1", &out); err != nil {
		t.Fatal(err)
	}
	if out.Gen != in.Gen || out.RNG != in.RNG || len(out.Fits) != 2 ||
		out.Fits[0] != in.Fits[0] || out.Fits[1] != in.Fits[1] {
		t.Fatalf("round trip changed payload: %+v -> %+v", in, out)
	}
}

func TestLoadMissingWrapsNotExist(t *testing.T) {
	err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), "fp", &payload{})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestFingerprintMismatchRefusesClearly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ga.ckpt")
	if err := Save(path, "pop=24 gens=10", payload{Gen: 1}); err != nil {
		t.Fatal(err)
	}
	err := Load(path, "pop=64 gens=25", &payload{})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	// The error must show both fingerprints so the operator can see what
	// changed.
	if !strings.Contains(err.Error(), "pop=24 gens=10") || !strings.Contains(err.Error(), "pop=64 gens=25") {
		t.Fatalf("error does not name both configs: %v", err)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ga.ckpt")
	if err := Save(path, "fp", payload{Gen: 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the payload without breaking the JSON shape.
	mut := strings.Replace(string(data), `"gen": 3`, `"gen": 4`, 1)
	if mut == string(data) {
		t.Fatal("test could not find the payload field to corrupt")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "fp", &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornFileDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ga.ckpt")
	if err := Save(path, "fp", payload{Gen: 3}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "fp", &payload{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCrashDuringSaveNeverCorruptsPreviousSnapshot simulates the crash
// window: a writer that died after creating (and possibly part-filling) its
// temp file but before the rename. The previous snapshot must load intact,
// and a subsequent Save must still succeed and replace it atomically.
func TestCrashDuringSaveNeverCorruptsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ga.ckpt")
	if err := Save(path, "fp", payload{Gen: 5, RNG: 42}); err != nil {
		t.Fatal(err)
	}
	// Torn temp files from three different death instants.
	for i, junk := range []string{"", `{"version":1,"finge`, strings.Repeat("x", 1<<16)} {
		tmp := filepath.Join(dir, "ga.ckpt.tmp-crash"+string(rune('a'+i)))
		if err := os.WriteFile(tmp, []byte(junk), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	var out payload
	if err := Load(path, "fp", &out); err != nil || out.Gen != 5 || out.RNG != 42 {
		t.Fatalf("previous snapshot damaged by torn temp files: %+v, %v", out, err)
	}
	if err := Save(path, "fp", payload{Gen: 6, RNG: 43}); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "fp", &out); err != nil || out.Gen != 6 {
		t.Fatalf("post-crash Save did not replace snapshot: %+v, %v", out, err)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	// Successive saves must leave exactly one checkpoint file plus no
	// leftover temp files, and always the latest content.
	dir := t.TempDir()
	path := filepath.Join(dir, "ga.ckpt")
	for gen := 0; gen < 20; gen++ {
		if err := Save(path, "fp", payload{Gen: gen}); err != nil {
			t.Fatal(err)
		}
	}
	var out payload
	if err := Load(path, "fp", &out); err != nil || out.Gen != 19 {
		t.Fatalf("latest snapshot wrong: %+v, %v", out, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ga.ckpt" {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}
}

// TestWriteFileModeMatchesOSWriteFile: a file written atomically gets the
// mode os.WriteFile(…, 0o644) gives a new file in the same directory,
// whatever the umask, and replacing it keeps that mode and leaves no temp.
func TestWriteFileModeMatchesOSWriteFile(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out")
	for _, data := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode() != want.Mode() {
			t.Errorf("mode %v after writing %q, os.WriteFile gives %v", got.Mode(), data, want.Mode())
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != data {
			t.Errorf("read back %q, %v; want %q", b, err, data)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("directory holds %d entries (%v), want ref and out", len(entries), err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ga.ckpt")
	if err := Save(path, "fp", payload{}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	mut := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if mut == string(data) {
		t.Fatal("could not rewrite version field")
	}
	os.WriteFile(path, []byte(mut), 0o644)
	err := Load(path, "fp", &payload{})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}
