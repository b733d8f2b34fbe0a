package trace

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gippr/internal/xrand"
)

// TestStreamFileRoundTrip: a stream file loads back exactly the records it
// was written from, every field and both write flags included, across
// more than one chunk; a missing file is fs.ErrNotExist, not corruption.
func TestStreamFileRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	recs := make([]Record, 3*streamChunk/streamRecordBytes+5)
	for i := range recs {
		recs[i] = Record{
			PC:    rng.Uint64(),
			Addr:  rng.Uint64(),
			Gap:   uint32(rng.Uint64()) | 1,
			Write: rng.Intn(2) == 1,
			Core:  uint8(rng.Intn(256)),
		}
	}
	dir := t.TempDir()
	for _, n := range []int{0, 1, len(recs)} {
		path := filepath.Join(dir, "s.llc")
		if err := WriteStreamFile(path, "key", recs[:n]); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStreamFile(path, "key", len(recs))
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if len(got) != n || (n > 0 && !reflect.DeepEqual(got, recs[:n])) {
			t.Errorf("%d records: loaded stream differs", n)
		}
		if _, err := ReadStreamFile(path, "other key", len(recs)); !errors.Is(err, ErrCorruptStream) {
			t.Errorf("%d records under another key: err %v, want ErrCorruptStream", n, err)
		}
	}
	if _, err := ReadStreamFile(filepath.Join(dir, "none.llc"), "key", 1); !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorruptStream) {
		t.Errorf("missing file: err %v, want fs.ErrNotExist alone", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("writes left %d files, want the one stream file", len(ents))
	}
}
