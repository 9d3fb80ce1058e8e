package kv

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
)

func benchRecords(n int) []Record {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:   []byte(fmt.Sprintf("key-%08d", rng.Intn(n))),
			Value: make([]byte, 90),
		}
	}
	return recs
}

func BenchmarkAppendRecord(b *testing.B) {
	rec := Record{Key: make([]byte, 10), Value: make([]byte, 90)}
	buf := make([]byte, 0, 128)
	b.SetBytes(int64(rec.Size()))
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], rec)
	}
}

func BenchmarkDecodeAll(b *testing.B) {
	var buf []byte
	for _, r := range benchRecords(1000) {
		buf = AppendRecord(buf, r)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAllInto measures the prepare stage's decode path: one
// scratch slice reused across frames, so steady-state decoding allocates
// nothing.
func BenchmarkDecodeAllInto(b *testing.B) {
	var buf []byte
	for _, r := range benchRecords(1000) {
		buf = AppendRecord(buf, r)
	}
	b.SetBytes(int64(len(buf)))
	var scratch []Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := DecodeAllInto(scratch[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
		scratch = recs
	}
}

func BenchmarkSortRecords(b *testing.B) {
	base := benchRecords(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := append([]Record(nil), base...)
		b.StartTimer()
		SortRecords(recs, DefaultCompare)
	}
}

func BenchmarkMerger8Way(b *testing.B) {
	const runs, per = 8, 1000
	sorted := make([][]Record, runs)
	for r := range sorted {
		sorted[r] = benchRecords(per)
		SortRecords(sorted[r], DefaultCompare)
	}
	b.SetBytes(int64(runs * per * 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		its := make([]Iterator, runs)
		for r := range its {
			its[r] = NewSliceIterator(sorted[r])
		}
		m, err := NewMerger(DefaultCompare, its...)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := m.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGrouper(b *testing.B) {
	recs := benchRecords(10000)
	SortRecords(recs, DefaultCompare)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGrouper(NewSliceIterator(recs), DefaultCompare)
		for {
			if _, err := g.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// teraRuns is TeraSort's A-side shape: runs of 10-byte printable keys
// with 90-byte values, each sorted, as one A task merges them.
func teraRuns(runs, per int) [][]Record {
	rng := rand.New(rand.NewSource(1))
	out := make([][]Record, runs)
	for r := range out {
		out[r] = make([]Record, per)
		for i := range out[r] {
			k := make([]byte, 10)
			for j := range k {
				k[j] = byte(' ' + rng.Intn(95))
			}
			out[r][i] = Record{Key: k, Value: make([]byte, 90)}
		}
		SortRecords(out[r], DefaultCompare)
	}
	return out
}

// splBatch is core.Config.SPLBytes' default: the record bytes one sealed
// SPL buffer holds, and so one prepare-stage sort or combine.
const splBatch = 256 << 10

// BenchmarkSortTera sorts one full SPL batch of TeraSort records in
// raw-byte order (the prefix column) and through a Compare func value, as
// decoded records, and in raw-byte order as one framed buffer
// (SortFramed into a reused output), as the prepare stage sorts it.
func BenchmarkSortTera(b *testing.B) {
	base := teraRuns(1, splBatch/100)[0]
	rand.New(rand.NewSource(2)).Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	for _, c := range []struct {
		name string
		cmp  Compare
	}{{"raw", nil}, {"func", DefaultCompare}} {
		b.Run(c.name, func(b *testing.B) {
			recs := make([]Record, len(base))
			for i := 0; i < b.N; i++ {
				copy(recs, base)
				SortRecords(recs, c.cmp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(base)), "ns/rec")
		})
	}
	b.Run("framed", func(b *testing.B) {
		var frame []byte
		for _, r := range base {
			frame = AppendRecord(frame, r)
		}
		var s FrameSorter
		out := make([]byte, 0, len(frame))
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if out, _, err = s.SortFramed(out[:0], frame); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(base)), "ns/rec")
	})
}

// BenchmarkMergeTera merges the runs one TeraSort A task sees at the
// 256 KiB SPL default, about 57 runs of one SPL batch each: as slices in
// raw-byte order and through a Compare func value, and as framed run
// buffers in raw-byte order, the shape the A side merges them in.
func BenchmarkMergeTera(b *testing.B) {
	const nruns = 57
	runs := teraRuns(nruns, splBatch/100)
	frames := make([][]byte, nruns)
	for r, run := range runs {
		for _, rec := range run {
			frames[r] = AppendRecord(frames[r], rec)
		}
	}
	for _, c := range []struct {
		name   string
		cmp    Compare
		framed bool
	}{{"raw", nil, false}, {"func", DefaultCompare, false}, {"framed", nil, true}} {
		b.Run(c.name, func(b *testing.B) {
			its := make([]Iterator, nruns)
			for i := 0; i < b.N; i++ {
				for r := range its {
					if c.framed {
						its[r] = NewFramedRun(frames[r])
					} else {
						its[r] = NewSliceIterator(runs[r])
					}
				}
				m, err := NewMerger(c.cmp, its...)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := m.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nruns*len(runs[0])), "ns/rec")
		})
	}
}
