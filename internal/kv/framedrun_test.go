package kv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
)

// framedRecords frames recs into one run buffer.
func framedRecords(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendRecord(b, r)
	}
	return b
}

// randomRecords returns n records with keys and values of up to maxLen
// random bytes.
func randomRecords(rng *rand.Rand, n, maxLen int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		k := make([]byte, rng.Intn(maxLen+1))
		v := make([]byte, rng.Intn(maxLen+1))
		rng.Read(k)
		rng.Read(v)
		recs[i] = Record{Key: k, Value: v}
	}
	return recs
}

// drainRun reads it to its end, returning the records (still aliasing the
// cursor's windows) and the terminal error (io.EOF on a clean end).
func drainRun(it Iterator) ([]Record, error) {
	var out []Record
	for {
		rec, err := it.Next()
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// TestFramedRunReaderStraddle puts a window edge at every byte offset of
// one record (its two varint headers, its key and its value): a filler
// record pads the run so the record under test starts j bytes before the
// first window ends.
func TestFramedRunReaderStraddle(t *testing.T) {
	probe := Record{Key: bytes.Repeat([]byte{'k'}, 200), Value: bytes.Repeat([]byte{'v'}, 300)}
	tail := Record{Key: []byte("tail"), Value: []byte("end")}
	size := probe.Size()
	for j := 1; j <= size; j++ {
		// Filler framing: 1-byte key varint, 1-byte key, 3-byte value varint.
		fill := Record{Key: []byte{'f'}, Value: make([]byte, framedWindow-j-5)}
		if fill.Size() != framedWindow-j {
			t.Fatalf("filler spans %d bytes, want %d", fill.Size(), framedWindow-j)
		}
		want := []Record{fill, probe, tail}
		got, err := drainRun(NewFramedRunReader(bytes.NewReader(framedRecords(want))))
		if err != io.EOF {
			t.Fatalf("edge %d bytes into the record: %v", size-j, err)
		}
		sameRecords(t, fmt.Sprintf("edge %d", size-j), got, want)
	}
}

// TestFramedRunReaderLargeValue reads a value four times the window.
func TestFramedRunReaderLargeValue(t *testing.T) {
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	want := []Record{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("big"), Value: big}, {Key: []byte("z")}}
	for name, src := range map[string]func([]byte) io.Reader{
		"bytes": func(b []byte) io.Reader { return bytes.NewReader(b) },
		"half":  func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	} {
		got, err := drainRun(NewFramedRunReader(src(framedRecords(want))))
		if err != io.EOF {
			t.Fatalf("%s: %v", name, err)
		}
		sameRecords(t, name, got, want)
	}
}

// TestFramedRunReaderSources runs a run of several windows through
// readers that return short reads or data together with EOF.
func TestFramedRunReaderSources(t *testing.T) {
	want := randomRecords(rand.New(rand.NewSource(2)), 3000, 400)
	run := framedRecords(want)
	if len(run) < 2*framedWindow {
		t.Fatalf("run is %d bytes, want several windows", len(run))
	}
	for name, src := range map[string]io.Reader{
		"one-byte": iotest.OneByteReader(bytes.NewReader(run)),
		"half":     iotest.HalfReader(bytes.NewReader(run)),
		"data-err": iotest.DataErrReader(bytes.NewReader(run)),
	} {
		got, err := drainRun(NewFramedRunReader(src))
		if err != io.EOF {
			t.Fatalf("%s: %v", name, err)
		}
		sameRecords(t, name, got, want)
	}
}

// TestFramedRunReaderTruncated cuts a run inside records and inside
// varints: the cursor yields the whole records before the cut, then an
// io.ErrUnexpectedEOF error, never a clean EOF.
func TestFramedRunReaderTruncated(t *testing.T) {
	want := randomRecords(rand.New(rand.NewSource(3)), 2000, 300)
	run := framedRecords(want)
	ends := make([]int, len(want))
	for i, off := 0, 0; i < len(want); i++ {
		off += want[i].Size()
		ends[i] = off
	}
	for _, cut := range []int{1, ends[0] - 1, framedWindow + 1, ends[len(ends)/2] + 1, len(run) - 1} {
		got, err := drainRun(NewFramedRunReader(bytes.NewReader(run[:cut])))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want an unexpected-EOF error", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		sameRecords(t, fmt.Sprintf("cut at %d", cut), got, want[:whole])
	}
	// A source that fails mid-run surfaces its error after the records it
	// delivered.
	got, err := drainRun(NewFramedRunReader(iotest.TimeoutReader(bytes.NewReader(run))))
	if !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("failing source: got %v, want %v", err, iotest.ErrTimeout)
	}
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("failing source: %d records before the error", len(got))
	}
}

// TestFramedRunReaderLifetime holds records across more than ten refills:
// windows are never reused, so every held record keeps its bytes.
func TestFramedRunReaderLifetime(t *testing.T) {
	want := randomRecords(rand.New(rand.NewSource(4)), 12000, 250)
	run := framedRecords(want)
	if len(run) < 11*framedWindow {
		t.Fatalf("run is %d bytes, want more than ten refills", len(run))
	}
	got, err := drainRun(NewFramedRunReader(bytes.NewReader(run)))
	if err != io.EOF {
		t.Fatal(err)
	}
	sameRecords(t, "held records", got, want)
}

// TestFramedRunReaderCorruptLength: a length prefix claiming 512 TiB
// over a 1 MiB source ends in an error after windows that grew only with
// the bytes actually read.
func TestFramedRunReaderCorruptLength(t *testing.T) {
	src := AppendRecord(nil, Record{Key: []byte("ok")})
	src = append(src, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // klen 2^49
	src = append(src, make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := drainRun(NewFramedRunReader(bytes.NewReader(src)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 1 {
		t.Fatalf("got %d records and %v, want 1 and an unexpected-EOF error", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte source", alloc, len(src))
	}
}

// FuzzFramedRunReader: any input read one byte at a time yields exactly
// the records, and the same clean EOF or error, as a FramedRun over the
// whole input, and an input that fits one window allocates no more than
// itself plus that window.
func FuzzFramedRunReader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(framedRecords([]Record{{Key: []byte("k"), Value: []byte("v")}, {Key: []byte("k2")}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // huge klen varint
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte{0x02, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := drainRun(NewFramedRun(data))
		r := NewFramedRunReader(iotest.OneByteReader(bytes.NewReader(data)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := 0, error(nil)
		for ; ; n++ {
			var rec Record
			if rec, err = r.Next(); err != nil {
				break
			}
			if n >= len(want) || !bytes.Equal(rec.Key, want[n].Key) || !bytes.Equal(rec.Value, want[n].Value) {
				t.Fatalf("record %d differs from the buffer's", n)
			}
		}
		runtime.ReadMemStats(&after)
		if n != len(want) {
			t.Fatalf("reader yielded %d records, buffer %d", n, len(want))
		}
		if (err == io.EOF) != (wantErr == io.EOF) {
			t.Fatalf("reader ended with %v, buffer with %v", err, wantErr)
		}
		// Past one window, refills allocate fresh windows by design. The
		// slack absorbs the fuzz engine's own allocations, which TotalAlloc
		// counts too.
		if alloc := after.TotalAlloc - before.TotalAlloc; len(data) <= framedWindow && alloc > uint64(len(data)+framedWindow+64<<10) {
			t.Fatalf("allocated %d bytes for a %d-byte input", alloc, len(data))
		}
	})
}
