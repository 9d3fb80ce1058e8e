package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests for HashCombine: on the same frame it must produce
// the bytes of the path it replaces for raw-byte order — DecodeAll,
// SortRecords, ApplyCombine, AppendRecord — and report the same record
// count, under combiners that drop keys, emit several values, return the
// values slice they were given, and depend on value order.

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

// checkHashCombine runs HashCombine and the reference on src under every
// test combiner. HashCombine appends to a non-empty dst to pin that it
// keeps what dst held.
func checkHashCombine(t *testing.T, what string, src []byte) {
	t.Helper()
	for _, c := range testCombiners {
		want, wantN, wantErr := refCombine(src, c.combine)
		prefix := []byte("hdr")
		got, gotN, gotErr := HashCombine(prefix, src, c.combine)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s: error %v, reference %v", what, c.name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
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
		"truncated":        frameOf([]byte("abc"), []byte("d"))[:7],
		"bad-varint":       {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for _, shape := range keyShapes {
		rng := rand.New(rand.NewSource(17))
		keys := make([][]byte, 2000)
		for i := range keys {
			keys[i] = shape.key(rng)
		}
		cases["shape-"+shape.name] = frameOf(keys...)
	}
	for name, src := range cases {
		checkHashCombine(t, name, src)
	}
}

// FuzzHashCombine checks HashCombine against sort+combine twice per input:
// on the raw bytes as a frame (malformed frames must fail on both sides),
// and on a frame carved from them — a length byte, then up to 12 key bytes
// so 8-byte prefix ties are common — with values numbering the records.
func FuzzHashCombine(f *testing.F) {
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
		checkHashCombine(t, "raw", data)
		var keys [][]byte
		for len(data) > 0 {
			n := min(int(data[0]%13), len(data)-1)
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		checkHashCombine(t, "carved", frameOf(keys...))
	})
}

// BenchmarkHashCombine combines one full WordCount SPL batch (Zipf words
// with 8-byte counts) by hash and by sort+combine.
func BenchmarkHashCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	one := binary.BigEndian.AppendUint64(nil, 1)
	var src []byte
	for len(src) < splBatch {
		src = AppendRecord(src, Record{Key: []byte(fmt.Sprintf("w%d", zipf.Uint64())), Value: one})
	}
	n, _ := CountRecords(src)
	sum := func(_ []byte, vals [][]byte) [][]byte {
		var s uint64
		for _, v := range vals {
			s += binary.BigEndian.Uint64(v)
		}
		return [][]byte{binary.BigEndian.AppendUint64(nil, s)}
	}
	b.Run("hash", func(b *testing.B) {
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst, _, _ = HashCombine(dst[:0], src, sum)
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
