package hdfs

import (
	"testing"

	"datampi/internal/diskio"
	"datampi/internal/kv"
)

func benchFS(b *testing.B, nodes int, blockSize int64) *FileSystem {
	b.Helper()
	disks := make([]*diskio.Disk, nodes)
	for i := range disks {
		d, err := diskio.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		disks[i] = d
	}
	fs, err := New(Config{BlockSize: blockSize, Replication: 2}, disks)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

func BenchmarkWriteFile(b *testing.B) {
	fs := benchFS(b, 3, 256<<10)
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile("/f", data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAllLocal(b *testing.B) {
	fs := benchFS(b, 3, 256<<10)
	data := make([]byte, 1<<20)
	if err := fs.WriteFile("/f", data, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadAll("/f", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRecordsInSplit reads every split of a TeraSort-shaped file
// (100-byte records, 4 MiB blocks, so a record straddles each boundary)
// as the O tasks do.
func BenchmarkReadRecordsInSplit(b *testing.B) {
	const recSize = 100
	fs := benchFS(b, 2, 4<<20)
	data := make([]byte, (16<<20)/recSize*recSize)
	if err := fs.WriteFile("/t", data, 0); err != nil {
		b.Fatal(err)
	}
	splits, err := fs.Splits("/t")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range splits {
			err := fs.ReadRecordsInSplit(s, recSize, 0, func([]byte) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkReadLinesInSplit(b *testing.B) {
	fs := benchFS(b, 2, 64<<10)
	line := []byte("the quick brown fox jumps over the lazy dog\n")
	var data []byte
	for len(data) < 1<<20 {
		data = append(data, line...)
	}
	if err := fs.WriteFile("/t", data, 0); err != nil {
		b.Fatal(err)
	}
	splits, err := fs.Splits("/t")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range splits {
			err := fs.ReadLinesInSplit(s, 0, func([]byte) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWriteRecords writes 100-byte TeraSort records (10-byte key,
// 90-byte value) through a kv.Writer into an hdfs.Writer, as a TeraSort
// A task writes its part file: 16 MiB per op over 4 MiB blocks, so
// records straddle packets and blocks.
func BenchmarkWriteRecords(b *testing.B) {
	fs := benchFS(b, 3, 4<<20)
	rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 90)}
	n := (16 << 20) / rec.Size()
	b.SetBytes(int64(n * rec.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fs.Create("/part", 0)
		if err != nil {
			b.Fatal(err)
		}
		w := kv.NewWriter(out)
		for j := 0; j < n; j++ {
			rec.Key[0] = byte(j)
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := out.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := fs.Delete("/part"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
