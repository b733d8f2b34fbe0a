package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzReader checks the binary trace reader never panics on arbitrary
// input and only ever returns well-formed records.
func FuzzReader(f *testing.F) {
	// Seed with a valid two-record trace and some corruptions of it.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Gap: 3, PC: 0x400000, Addr: 0x1000, Write: true})
	w.Write(Record{Gap: 1, PC: 0x400004, Addr: 0x1040})
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("GIPPRTRC\x01"))
	f.Add([]byte("not a trace at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			rec, err := r.Read()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // corrupt tail: reported, not panicked
			}
			if rec.Gap == 0 {
				t.Fatal("reader produced a zero-gap record")
			}
		}
	})
}

// FuzzStreamFile puts arbitrary bytes at a stream file's path. A load
// either fails or returns exactly what a valid file encodes (its records
// write back to the same bytes), never panics, and never allocates past
// the record budget however many records the header claims.
func FuzzStreamFile(f *testing.F) {
	const key = "gippr-stream|fuzz"
	const budget = 64
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		if err := writeStream(&buf, key, recs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode([]Record{
		{PC: 0x400000, Addr: 0x1000, Gap: 3, Write: true},
		{PC: 0x400004, Addr: 0x1040, Gap: 1, Core: 2},
	})
	f.Add(valid)
	f.Add(encode(nil))
	f.Add(encode(make([]Record, budget+1)))
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[len(streamHeader(key, 0))-8:], 1<<40)
	f.Add(huge)
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "s.llc")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := ReadStreamFile(path, key, budget)
		runtime.ReadMemStats(&after)
		// The records, one chunk buffer sized to them, the header and the
		// file handle: a header that claimed more would show here.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget*24+budget*streamRecordBytes+16<<10 {
			t.Fatalf("a load of %d bytes allocated %d bytes, over the %d-record budget", len(data), alloc, budget)
		}
		if err != nil {
			return
		}
		if len(recs) > budget {
			t.Fatalf("loaded %d records, over the budget of %d", len(recs), budget)
		}
		var back bytes.Buffer
		if err := writeStream(&back, key, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), data) {
			t.Fatalf("loaded %d records that do not write back to the file's bytes", len(recs))
		}
	})
}
