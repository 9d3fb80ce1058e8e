package kv

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestRecordFrameRoundTrip(t *testing.T) {
	f := func(key, val []byte) bool {
		buf := AppendRecord(nil, Record{Key: key, Value: val})
		rec, n, err := ReadRecord(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return bytes.Equal(rec.Key, key) && bytes.Equal(rec.Value, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordSizeMatchesFrame(t *testing.T) {
	f := func(key, val []byte) bool {
		r := Record{Key: key, Value: val}
		return r.Size() == len(AppendRecord(nil, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRecordTruncated(t *testing.T) {
	buf := AppendRecord(nil, Record{Key: []byte("hello"), Value: []byte("world")})
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := ReadRecord(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, _, err := ReadRecord(nil); err == nil {
		t.Error("empty buffer not rejected")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte(""), Value: []byte("")},
		{Key: []byte("bb"), Value: bytes.Repeat([]byte{7}, 1000)},
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(want)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(want))
	}
	r := NewReader(&buf)
	for i, wr := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got.Key, wr.Key) || !bytes.Equal(got.Value, wr.Value) {
			t.Errorf("record %d mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("want EOF at end, got %v", err)
	}
}

func TestDecodeAll(t *testing.T) {
	var buf []byte
	for i := 0; i < 10; i++ {
		buf = AppendRecord(buf, Record{Key: []byte{byte(i)}, Value: []byte{byte(i * 2)}})
	}
	recs, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Key[0] != byte(i) || r.Value[0] != byte(i*2) {
			t.Errorf("record %d = %v", i, r)
		}
	}
	if _, err := DecodeAll([]byte{0x80}); err == nil {
		t.Error("corrupt buffer not rejected")
	}
}

func TestSortRecordsStable(t *testing.T) {
	recs := []Record{
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("x")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("y")},
	}
	SortRecords(recs, DefaultCompare)
	want := []string{"x", "y", "1", "2"}
	for i, v := range want {
		if string(recs[i].Value) != v {
			t.Errorf("pos %d: got %q want %q", i, recs[i].Value, v)
		}
	}
}

func TestDefaultPartitionRangeAndDeterminism(t *testing.T) {
	f := func(key []byte) bool {
		p := DefaultPartition(key, nil, 7)
		return p >= 0 && p < 7 && p == DefaultPartition(key, nil, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultPartitionSpreads(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		key := []byte{byte(i), byte(i >> 8), byte(i * 17)}
		counts[DefaultPartition(key, nil, 8)]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("partition %d received no keys", p)
		}
	}
}

// writeLog records every Write the kv.Writer makes to it.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriterWritesThrough pins the kv.Writer contract: no buffering, one
// whole framed record per underlying Write, delivered before Write
// returns. Callers (benchmark/jobs.go, examples/) close the underlying
// writer without any flush, so a buffering Writer would silently truncate
// their output.
func TestWriterWritesThrough(t *testing.T) {
	var log writeLog
	w := NewWriter(&log)
	recs := []Record{
		{Key: []byte("k1"), Value: []byte("v1")},
		{},
		{Key: bytes.Repeat([]byte{'x'}, 300), Value: []byte("long key")},
	}
	for i, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		if len(log.writes) != i+1 {
			t.Fatalf("after record %d: %d underlying writes, want %d", i, len(log.writes), i+1)
		}
		if want := AppendRecord(nil, r); !bytes.Equal(log.writes[i], want) {
			t.Fatalf("record %d: wrote %x, want %x", i, log.writes[i], want)
		}
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}
}

// writerRecords are records of every size class: empty, short, with
// two-byte length varints, and longer than a small sink's buffer.
func writerRecords() []Record {
	return []Record{
		{Key: []byte("k1"), Value: []byte("v1")},
		{},
		{Key: bytes.Repeat([]byte{'x'}, 300), Value: []byte("long key")},
		{Key: []byte("k2"), Value: bytes.Repeat([]byte{'v'}, 200)},
		{Key: []byte("k3"), Value: bytes.Repeat([]byte{'w'}, 5000)},
		{Key: []byte("k4")},
	}
}

// A Writer over a sink with AvailableBuffer (bufio.Writer, bytes.Buffer)
// encodes records into the sink's free space, or into its own buffer when
// a record does not fit there; either way the sink ends up holding the
// concatenated framed records.
func TestWriterAvailableBufferSinks(t *testing.T) {
	var want []byte
	for range 20 {
		for _, r := range writerRecords() {
			want = AppendRecord(want, r)
		}
	}
	var direct bytes.Buffer
	var viaBufio bytes.Buffer
	bw := bufio.NewWriterSize(&viaBufio, 256)
	for name, sink := range map[string]io.Writer{"bytes.Buffer": &direct, "bufio.Writer": bw} {
		w := NewWriter(sink)
		for range 20 {
			for _, r := range writerRecords() {
				if err := w.Write(r); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if w.Count() != int64(20*len(writerRecords())) {
			t.Errorf("%s: Count = %d", name, w.Count())
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), want) {
		t.Errorf("bytes.Buffer sink holds %d bytes, not the %d framed records", direct.Len(), len(want))
	}
	if !bytes.Equal(viaBufio.Bytes(), want) {
		t.Errorf("bufio.Writer sink wrote %d bytes, not the %d framed records", viaBufio.Len(), len(want))
	}
}

// In steady state a Writer allocates nothing per record, whether records
// fit the sink's free space or fall back to the Writer's reused buffer:
// the 5000-byte record never fits a 4 KiB bufio.Writer.
func TestWriterAllocatesNothingPerRecord(t *testing.T) {
	w := NewWriter(bufio.NewWriterSize(io.Discard, 4<<10))
	recs := writerRecords()
	write := func() {
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("writing %d records allocated %v times, want 0", len(recs), allocs)
	}
}
