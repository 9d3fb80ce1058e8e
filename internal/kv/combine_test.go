package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests for CombineTable: fed a frame's records one Add at a
// time, it must produce the bytes of the path it replaces for raw-byte
// order — DecodeAll, SortRecords, ApplyCombine, AppendRecord — and report
// the same record count, under combiners that drop keys, emit several
// values, return the values slice they were given, and depend on value
// order.

// refCombine is the sort-then-combine reference.
func refCombine(src []byte, combine Combine) ([]byte, int64, error) {
	recs, err := DecodeAll(src)
	if err != nil {
		return nil, 0, err
	}
	SortRecords(recs, nil)
	recs = ApplyCombine(recs, DefaultCompare, combine)
	var out []byte
	for _, r := range recs {
		out = AppendRecord(out, r)
	}
	return out, int64(len(recs)), nil
}

// testCombiners cover every shape of combiner output.
var testCombiners = []struct {
	name    string
	combine Combine
}{
	// concat folds the values in arrival order: any reordering of a key's
	// values changes the output.
	{"concat", func(_ []byte, vals [][]byte) [][]byte { return [][]byte{bytes.Join(vals, []byte{'|'})} }},
	{"drop-all", func([]byte, [][]byte) [][]byte { return nil }},
	{"two", func(_ []byte, vals [][]byte) [][]byte {
		return [][]byte{binary.AppendUvarint(nil, uint64(len(vals))), vals[len(vals)-1]}
	}},
	{"first", func(_ []byte, vals [][]byte) [][]byte { return vals[:1] }},
	{"identity", func(_ []byte, vals [][]byte) [][]byte { return vals }},
	{"drop-odd-keys", func(key []byte, vals [][]byte) [][]byte {
		if len(key)%2 == 1 {
			return nil
		}
		return [][]byte{bytes.Join(vals, nil)}
	}},
}

// checkCombineTable feeds src's records through tb, reset first, under
// every test combiner and compares AppendCombined with the reference.
// Each record is added from scratch buffers that are overwritten as soon
// as Add returns, as Context.Send reuses its codec buffers, so a table
// that kept the caller's bytes instead of copying them fails. The output
// is appended to a non-empty dst to pin that it keeps what dst held.
func checkCombineTable(t *testing.T, tb *CombineTable, what string, src []byte) {
	t.Helper()
	recs, err := DecodeAll(src)
	if err != nil {
		return // a malformed frame has no records to add
	}
	size := 0 // not len(src): a frame may spell a length in a longer varint
	for _, r := range recs {
		size += r.Size()
	}
	var kbuf, vbuf []byte
	for _, c := range testCombiners {
		want, wantN, _ := refCombine(src, c.combine)
		tb.Reset()
		for _, r := range recs {
			kbuf, vbuf = append(kbuf[:0], r.Key...), append(vbuf[:0], r.Value...)
			tb.Add(kbuf, vbuf)
			for i := range kbuf {
				kbuf[i] = 0xA5
			}
			for i := range vbuf {
				vbuf[i] = 0x5A
			}
		}
		if tb.Len() != len(recs) || tb.Size() != size {
			t.Fatalf("%s/%s: Len %d, Size %d; want %d records of %d bytes",
				what, c.name, tb.Len(), tb.Size(), len(recs), size)
		}
		prefix := []byte("hdr")
		got, gotN := tb.AppendCombined(prefix, c.combine)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s/%s: dst prefix overwritten", what, c.name)
		}
		got = got[len(prefix):]
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: output differs from sort+combine\n got %q\nwant %q", what, c.name, got, want)
		}
		if n, _ := CountRecords(got); gotN != wantN || n != wantN {
			t.Fatalf("%s/%s: %d records reported, %d framed, reference %d", what, c.name, gotN, n, wantN)
		}
	}
}

// frameOf encodes keys with values numbering the records, so the value
// order within a key is visible in every order-sensitive combiner.
func frameOf(keys ...[]byte) []byte {
	var b []byte
	for i, k := range keys {
		b = AppendRecord(b, Record{Key: k, Value: []byte(fmt.Sprint(i))})
	}
	return b
}

func TestHashCombineMatchesSortCombine(t *testing.T) {
	distinct := make([][]byte, 3000)
	for i := range distinct {
		distinct[i] = []byte(fmt.Sprintf("k%07d", i*7919%3000))
	}
	repeated := make([][]byte, 500)
	for i := range repeated {
		repeated[i] = []byte("same")
	}
	cases := map[string][]byte{
		"empty-frame":      nil,
		"one-record":       frameOf([]byte("a")),
		"empty-keys":       frameOf(nil, []byte("a"), nil, []byte{}, []byte("a")),
		"shared-8-byte":    frameOf([]byte("prefix00b"), []byte("prefix00a"), []byte("prefix00"), []byte("prefix00a"), []byte("prefix00")),
		"zero-padded":      frameOf([]byte("ab\x00"), []byte("ab"), []byte("ab\x00\x00"), []byte("ab"), []byte("ab\x00")),
		"one-key-repeated": frameOf(repeated...),
		"all-distinct":     frameOf(distinct...),
		"empty-values":     AppendRecord(AppendRecord(nil, Record{Key: []byte("x")}), Record{Key: []byte("x")}),
	}
	for _, shape := range keyShapes {
		rng := rand.New(rand.NewSource(17))
		keys := make([][]byte, 2000)
		for i := range keys {
			keys[i] = shape.key(rng)
		}
		cases["shape-"+shape.name] = frameOf(keys...)
	}
	// One table serves every case, so each starts from a Reset of the last.
	var tb CombineTable
	for name, src := range cases {
		checkCombineTable(t, &tb, name, src)
	}
}

// FuzzCombineTable checks CombineTable against sort+combine twice per
// input: on the raw bytes when they decode as a frame, and on a frame
// carved from them — a length byte, then up to 12 key bytes so 8-byte
// prefix ties are common — with values numbering the records. One table
// serves both, so the second starts from a Reset of the first.
func FuzzCombineTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 'a', 0, 0})                                   // empty keys
	f.Add([]byte("\x09prefix00b\x08prefix00\x09prefix00a\x08prefix00")) // shared 8-byte prefix
	f.Add([]byte("\x02ab\x03ab\x00\x02ab\x04ab\x00\x00"))               // "ab" vs "ab\x00"
	f.Add(bytes.Repeat([]byte("\x03dup"), 40))                          // one key repeated
	var distinct []byte
	for i := 0; i < 300; i++ {
		distinct = append(distinct, 2, byte(i>>8), byte(i))
	}
	f.Add(distinct) // all distinct: the table grows several times
	f.Add(frameOf([]byte("k"), []byte("k")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tb CombineTable
		checkCombineTable(t, &tb, "raw", data)
		var keys [][]byte
		for len(data) > 0 {
			n := min(int(data[0]%13), len(data)-1)
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		checkCombineTable(t, &tb, "carved", frameOf(keys...))
	})
}

// BenchmarkCombineTable combines one full WordCount SPL batch (Zipf words
// with 8-byte counts) by table — every record added, then combined — and
// by sort+combine over the encoded batch.
func BenchmarkCombineTable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	one := binary.BigEndian.AppendUint64(nil, 1)
	var src []byte
	for len(src) < splBatch {
		src = AppendRecord(src, Record{Key: []byte(fmt.Sprintf("w%d", zipf.Uint64())), Value: one})
	}
	recs, _ := DecodeAll(src)
	n := int64(len(recs))
	sum := func(_ []byte, vals [][]byte) [][]byte {
		var s uint64
		for _, v := range vals {
			s += binary.BigEndian.Uint64(v)
		}
		return [][]byte{binary.BigEndian.AppendUint64(nil, s)}
	}
	b.Run("table", func(b *testing.B) {
		var tb CombineTable
		var dst []byte
		for i := 0; i < b.N; i++ {
			tb.Reset()
			for _, r := range recs {
				tb.Add(r.Key, r.Value)
			}
			dst, _ = tb.AppendCombined(dst[:0], sum)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/rec")
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refCombine(src, sum)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/rec")
	})
}
