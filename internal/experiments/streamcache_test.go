package experiments

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/workload"
)

// probeWorkloads are the benchmark's cold-grid probe set: five phases, one
// of them mcf_like's second.
var probeWorkloads = []string{"mcf_like", "lbm_like", "sphinx3_like", "dealII_like"}

// TestStreamKeyPinned pins the stream key byte for byte. A change to it
// orphans every stream file on disk; make one only together with a change
// to what a capture produces, and then bump streamVersion.
func TestStreamKeyPinned(t *testing.T) {
	const want = "gippr-stream|v1|workload=mcf_like|phase=1|seed=1885116d7af1ee44|records=600000" +
		"|l1=L1D;size=32768;ways=8;block=64;sets=64|l2=L2;size=262144;ways=8;block=64;sets=512"
	if got := streamKey("mcf_like", 1, Default.PhaseRecords); got != want {
		t.Errorf("streamKey =\n %s\nwant\n %s", got, want)
	}
}

// streamPath is the data file phaseStream keeps one phase's stream in.
func streamPath(dir, name string, phase, records int) string {
	return streamBase(dir, streamKey(name, phase, records)) + ".llc"
}

// buildAll builds the streams of wls on a fresh smoke lab over dir and
// returns the lab.
func buildAll(t *testing.T, dir string, wls []workload.Workload) *Lab {
	t.Helper()
	l := NewLab(Smoke).SetStreamDir(dir)
	if err := l.PrefetchStreamsCtx(context.Background(), wls); err != nil {
		t.Fatal(err)
	}
	return l
}

func phaseCount(wls []workload.Workload) uint64 {
	n := 0
	for _, w := range wls {
		n += len(w.Phases)
	}
	return uint64(n)
}

// TestStreamCacheLifecycle walks one directory through three lab
// lifetimes: the first captures and leaves only zero-byte markers, the
// second captures again and writes every phase, and the third loads every
// phase. Loaded streams are reflect.DeepEqual to captured ones, and a grid
// of every registry policy over them is identical to a capturing lab's.
func TestStreamCacheLifecycle(t *testing.T) {
	wls := gridWorkloads(t, probeWorkloads...)
	n := phaseCount(wls)
	var specs []Spec
	for _, name := range policy.Names() {
		specs = append(specs, registrySpec(name))
	}
	ref := NewLab(Smoke)
	want, err := ref.Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.StreamCounts(); got != (StreamCounts{Captures: n}) {
		t.Fatalf("lab without a stream dir counts %+v, want %d captures alone", got, n)
	}

	dir := filepath.Join(t.TempDir(), "streams")
	if got := buildAll(t, dir, wls).StreamCounts(); got != (StreamCounts{Captures: n}) {
		t.Fatalf("first lifetime counts %+v, want %d captures alone", got, n)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(ents)) != n {
		t.Fatalf("first lifetime left %d files, want %d markers", len(ents), n)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(e.Name(), ".seen") || info.Size() != 0 {
			t.Errorf("first lifetime left %s of %d bytes, want only zero-byte markers", e.Name(), info.Size())
		}
	}

	if got := buildAll(t, dir, wls).StreamCounts(); got != (StreamCounts{Captures: n, Writes: n}) {
		t.Fatalf("second lifetime counts %+v, want %d captures and writes", got, n)
	}

	l := NewLab(Smoke).SetStreamDir(dir)
	if view := l.WithSampling(2); view.StreamDir() != dir {
		t.Errorf("sampling view's stream dir %q, want its lab's %q", view.StreamDir(), dir)
	}
	got, err := l.Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := l.StreamCounts(); c != (StreamCounts{Loads: n}) {
		t.Fatalf("third lifetime counts %+v, want %d loads alone", c, n)
	}
	for _, w := range wls {
		if !reflect.DeepEqual(l.Streams(w), ref.Streams(w)) {
			t.Errorf("%s: loaded streams differ from captured ones", w.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grid over loaded streams differs from the capturing lab's")
	}
}

// TestStreamCacheCorruption damages one phase's stream file in each way a
// disk or a hand can, and requires a miss that deletes the file, counts it
// corrupt, captures the phase (rewriting the file, as its marker is
// there), and gives the capturing lab's streams and grid.
func TestStreamCacheCorruption(t *testing.T) {
	wls := gridWorkloads(t, "mcf_like")
	w := wls[0]
	specs := gridSpecs(t)
	ref := NewLab(Smoke)
	want, err := ref.Grid(context.Background(), specs, wls, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := t.TempDir()
	buildAll(t, warm, wls)
	buildAll(t, warm, wls)
	files, err := os.ReadDir(warm)
	if err != nil {
		t.Fatal(err)
	}
	records := Smoke.PhaseRecords
	key := streamKey(w.Name, 0, records)
	orig, err := os.ReadFile(streamPath(warm, w.Name, 0, records))
	if err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(streamPath(warm, w.Name, 1, records))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x40
		return b
	}
	reCRC := func(b []byte) []byte {
		end := len(b) - 4
		binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], crc32.MakeTable(crc32.Castagnoli)))
		return b
	}
	for _, tc := range []struct {
		name string
		data func(path string) []byte // nil: the case wrote path itself
	}{
		{"payload byte", func(string) []byte { return flip(len(orig) / 2) }},
		{"magic byte", func(string) []byte { return flip(0) }},
		{"key byte", func(string) []byte { return flip(16 + 3) }},
		{"version", func(string) []byte { return reCRC(flip(8)) }},
		{"truncated", func(string) []byte { return orig[:len(orig)-1] }},
		{"appended", func(string) []byte { return append(append([]byte(nil), orig...), 0) }},
		{"zero length", func(string) []byte { return []byte{} }},
		{"another phase's file", func(string) []byte { return other }},
		{"count over the budget", func(path string) []byte {
			recs := append([]trace.Record(nil), ref.Streams(w)[0].Records...)
			for len(recs) <= records {
				recs = append(recs, recs[0])
			}
			if err := trace.WriteStreamFile(path, key, recs); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range files {
				b, err := os.ReadFile(filepath.Join(warm, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			path := streamPath(dir, w.Name, 0, records)
			if b := tc.data(path); b != nil {
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l := NewLab(Smoke).SetStreamDir(dir)
			got, err := l.Grid(context.Background(), specs, wls, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c := l.StreamCounts(); c != (StreamCounts{Captures: 1, Loads: 1, Writes: 1, Corrupt: 1}) {
				t.Errorf("counts %+v, want 1 corrupt phase captured and rewritten, 1 loaded", c)
			}
			if !reflect.DeepEqual(l.Streams(w), ref.Streams(w)) {
				t.Errorf("streams differ from captured ones")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("grid differs from the capturing lab's")
			}
			if _, err := trace.ReadStreamFile(path, key, records); err != nil {
				t.Errorf("the rewritten file does not load: %v", err)
			}
		})
	}
}

// TestStreamCacheUnwritable: a stream directory that cannot be created or
// written never fails a build, and one that is read-only still loads.
func TestStreamCacheUnwritable(t *testing.T) {
	wls := gridWorkloads(t, "lbm_like")
	ref := NewLab(Smoke)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l := buildAll(t, filepath.Join(file, "streams"), wls)
		if c := l.StreamCounts(); c != (StreamCounts{Captures: 1}) {
			t.Errorf("uncreatable dir, lifetime %d: counts %+v, want 1 capture alone", i+1, c)
		}
		if !reflect.DeepEqual(l.Streams(wls[0]), ref.Streams(wls[0])) {
			t.Errorf("uncreatable dir, lifetime %d: streams differ from captured ones", i+1)
		}
	}

	dir := t.TempDir()
	buildAll(t, dir, wls)
	buildAll(t, dir, wls)
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	l := buildAll(t, dir, wls)
	if c := l.StreamCounts(); c != (StreamCounts{Loads: 1}) {
		t.Errorf("read-only dir: counts %+v, want 1 load alone", c)
	}
	if !reflect.DeepEqual(l.Streams(wls[0]), ref.Streams(wls[0])) {
		t.Errorf("read-only dir: loaded streams differ from captured ones")
	}
}
