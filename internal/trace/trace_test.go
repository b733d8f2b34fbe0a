package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestRecordSize pins the record layout: streams of millions of records are
// the largest resident data, so a field that re-pads the struct past 24
// bytes must fail here rather than quietly grow every stream by a third.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d bytes, want 24", got)
	}
}

func sampleRecords() []Record {
	return []Record{
		{Gap: 1, PC: 0x400000, Addr: 0x10000, Write: false},
		{Gap: 7, PC: 0x400004, Addr: 0x10040, Write: true},
		{Gap: 3, PC: 0x400004, Addr: 0x10080, Write: false},
		{Gap: 1 << 30, PC: 0xffff_ffff_0000, Addr: 0, Write: false}, // big gap, addr goes backwards
		{Gap: 2, PC: 0x400008, Addr: 1 << 40, Write: true},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, pcs, addrs []uint64, writes []bool) bool {
		n := len(gaps)
		for _, s := range []int{len(pcs), len(addrs), len(writes)} {
			if s < n {
				n = s
			}
		}
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Gap: uint32(gaps[i]) + 1, PC: pcs[i], Addr: addrs[i], Write: writes[i]}
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		w.Flush()
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := rd.ReadAll()
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsZeroGap(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Record{Gap: 0}); err == nil {
		t.Fatal("zero-gap record accepted")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("GIP"))); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("GIPPRTRC\xff"))); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReaderEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Gap: 1, Addr: 64})
	w.Flush()
	r, _ := NewReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Gap: 5, PC: 123456789, Addr: 987654321})
	w.Flush()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record returned %v", err)
	}
}

func TestReaderAsSource(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{Gap: 1, Addr: 64})
	w.Write(Record{Gap: 2, Addr: 128})
	w.Flush()
	r, _ := NewReader(&buf)
	var src Source = r
	n := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("source yielded %d records", n)
	}
}

func TestSliceSource(t *testing.T) {
	recs := sampleRecords()
	s := NewSliceSource(recs)
	got := Collect(s, 0)
	if len(got) != len(recs) {
		t.Fatalf("collected %d", len(got))
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded a record")
	}
	s.Reset()
	if got := Collect(s, 2); len(got) != 2 {
		t.Fatalf("limited collect got %d", len(got))
	}
}

func TestInstructions(t *testing.T) {
	recs := []Record{{Gap: 3}, {Gap: 4}, {Gap: 1}}
	if got := Instructions(recs); got != 8 {
		t.Fatalf("Instructions = %d", got)
	}
	if got := Instructions(nil); got != 0 {
		t.Fatalf("Instructions(nil) = %d", got)
	}
}

func TestZigZag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)} {
		if got := unzig(zigzag(d)); got != d {
			t.Fatalf("zigzag round trip of %d gave %d", d, got)
		}
	}
}

func TestDeltaCompression(t *testing.T) {
	// Sequential addresses should compress to a few bytes per record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		w.Write(Record{Gap: 4, PC: 0x400000, Addr: uint64(i) * 64})
	}
	w.Flush()
	if per := float64(buf.Len()) / 1000; per > 5 {
		t.Fatalf("sequential trace uses %.1f bytes/record", per)
	}
}
