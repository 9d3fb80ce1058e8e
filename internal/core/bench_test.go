package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"datampi/internal/kv"
)

// shuffleJob pumps n pre-serialized records through the full bipartite
// pipeline (SPL -> sort/combine -> MPI -> RPL merge -> A iterator).
func shuffleJob(n, numO, numA, procs int, conf Config) *Job {
	return &Job{
		Mode: MapReduce,
		Conf: conf,
		NumO: numO, NumA: numA, Procs: procs, Slots: 2,
		OTask: func(ctx *Context) error {
			rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 90)}
			for i := ctx.Rank(); i < n; i += ctx.CommSize(CommO) {
				copy(rec.Key, fmt.Sprintf("%010d", i*2654435761%n))
				if err := ctx.SendRecord(rec); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			for {
				_, ok, err := ctx.RecvRecord()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
		},
	}
}

// BenchmarkShuffleThroughput measures end-to-end records through the
// runtime (100-byte records, sorted MapReduce mode).
func BenchmarkShuffleThroughput(b *testing.B) {
	const n = 20000
	b.SetBytes(n * 100)
	for i := 0; i < b.N; i++ {
		if _, err := Run(shuffleJob(n, 4, 4, 2, Config{KeyCodec: kv.Bytes, ValueCodec: kv.Bytes})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShufflePipelineOff is the §IV-C ablation: synchronous sends.
func BenchmarkShufflePipelineOff(b *testing.B) {
	const n = 20000
	b.SetBytes(n * 100)
	for i := 0; i < b.N; i++ {
		conf := Config{KeyCodec: kv.Bytes, ValueCodec: kv.Bytes, OSidePipelineOff: true}
		if _, err := Run(shuffleJob(n, 4, 4, 2, conf)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleUnsorted measures the Streaming-style unsorted path.
func BenchmarkShuffleUnsorted(b *testing.B) {
	const n = 20000
	sorted := false
	b.SetBytes(n * 100)
	for i := 0; i < b.N; i++ {
		conf := Config{KeyCodec: kv.Bytes, ValueCodec: kv.Bytes, Sorted: &sorted}
		if _, err := Run(shuffleJob(n, 4, 4, 2, conf)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOSendParallel is the O-side send path's layer probe: an
// unsorted Common-mode job on the mem transport, with one O task and with
// one per core, so a per-record cost that grows with the sender count
// (a shared counter, a contended line) shows up as ns/record.
func BenchmarkOSendParallel(b *testing.B) {
	const n = 200000
	sorted := false
	for _, numO := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		b.Run(fmt.Sprintf("numO=%d", numO), func(b *testing.B) {
			job := shuffleJob(n, numO, 2, 2, Config{Sorted: &sorted})
			job.Mode = Common
			job.Slots = numO
			job.OTask = func(ctx *Context) error {
				rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 90)}
				for i := ctx.Rank(); i < n; i += numO {
					binary.BigEndian.PutUint64(rec.Key[2:], uint64(i))
					if err := ctx.SendRecord(rec); err != nil {
						return err
					}
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// BenchmarkCheckpointOverhead measures the §IV-E checkpoint write cost on
// the same shuffle.
func BenchmarkCheckpointOverhead(b *testing.B) {
	const n = 20000
	b.SetBytes(n * 100)
	for i := 0; i < b.N; i++ {
		conf := Config{
			KeyCodec: kv.Bytes, ValueCodec: kv.Bytes,
			FaultTolerance: true, CheckpointDir: b.TempDir(), CheckpointRecords: 2048,
		}
		if _, err := Run(shuffleJob(n, 4, 4, 2, conf)); err != nil {
			b.Fatal(err)
		}
	}
}
