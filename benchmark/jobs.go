package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"datampi"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// Job bodies, copied from internal/bench so that package can change
// without moving this benchmark's baseline. Both run through the public
// API over loopback TCP: TCP is the production link; the in-memory
// transport is a test double.

var runOpts = []datampi.RunOption{
	datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP}),
	datampi.WithCounters(),
}

// teraPartition range-partitions uniform printable keys by their first
// byte, so partition i's keys all sort below partition i+1's and the part
// files concatenate into one globally sorted output.
func teraPartition(key, _ []byte, numA int) int {
	p := int(key[0]-' ') * numA / 95
	if p < 0 {
		p = 0
	}
	if p >= numA {
		p = numA - 1
	}
	return p
}

// ftConf is terasort_ft's departure from terasort: a memory cache small
// enough that the A side spills nearly everything, and checkpointing on.
type ftConf struct {
	memCacheBytes int64
	cpDir         string // "" turns checkpointing off and keeps the small cache
	cpRecords     int64
	crashAfterCP  int64 // > 0: abort once this many records are durable
}

const (
	teraInput  = "/tera/in"
	teraOutput = "/tera/out"
	wcInput    = "/wc/in"
	wcOutput   = "/wc/out"
)

func partName(prefix string, rank int) string { return fmt.Sprintf("%s/part-%05d", prefix, rank) }

// teraSortJob sorts teraInput into teraOutput/part-*. ft == nil is the
// plain terasort workload.
func teraSortJob(env *benchEnv, ft *ftConf, tr *trace.Tracer) (*datampi.Job, error) {
	splits, err := env.fs.Splits(teraInput)
	if err != nil {
		return nil, err
	}
	job := &datampi.Job{
		Name: "terasort",
		Mode: datampi.MapReduce,
		Conf: datampi.Config{
			KeyCodec:   datampi.BytesCodec,
			ValueCodec: datampi.BytesCodec,
			Partition:  teraPartition,
		},
		NumO: benchProcs * benchSlots, NumA: benchProcs * benchSlots,
		Procs: benchProcs, Slots: benchSlots,
		Input:      splits,
		SpillDisks: env.local,
		Trace:      tr,
		OTask: func(ctx *datampi.Context) error {
			skip := ctx.TakeCheckpointSkip()
			for _, s := range datampi.SplitsForTask(ctx, splits) {
				err := env.fs.ReadRecordsInSplit(s, teraRecordSize, ctx.Proc(), func(rec []byte) error {
					if skip > 0 {
						skip--
						return nil
					}
					return ctx.SendRecord(kv.Record{Key: rec[:teraKeySize], Value: rec[teraKeySize:]})
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			out, err := env.fs.Create(partName(teraOutput, ctx.Rank()), ctx.Proc())
			if err != nil {
				return err
			}
			w := kv.NewWriter(out)
			for {
				rec, ok, err := ctx.RecvRecord()
				if err != nil {
					return err
				}
				if !ok {
					return out.Close()
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
		},
	}
	if ft != nil {
		job.Name = "terasort_ft"
		job.Conf.MemCacheBytes = ft.memCacheBytes
		job.Conf.FaultTolerance = ft.cpDir != ""
		job.Conf.CheckpointDir = ft.cpDir
		job.Conf.CheckpointRecords = ft.cpRecords
		job.Conf.InjectFailAfterCPRecords = ft.crashAfterCP
	}
	return job, nil
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// sumCombine folds counter values: MPI_D_COMBINE for WordCount.
func sumCombine(_ []byte, vals [][]byte) [][]byte {
	var sum uint64
	for _, v := range vals {
		sum += binary.BigEndian.Uint64(v)
	}
	return [][]byte{u64(sum)}
}

// wordCountJob counts the words of wcInput into wcOutput/part-*.
func wordCountJob(env *benchEnv, tr *trace.Tracer) (*datampi.Job, error) {
	splits, err := env.fs.Splits(wcInput)
	if err != nil {
		return nil, err
	}
	return &datampi.Job{
		Name: "wordcount",
		Mode: datampi.MapReduce,
		Conf: datampi.Config{
			KeyCodec:   datampi.BytesCodec,
			ValueCodec: datampi.BytesCodec,
			Combine:    sumCombine,
		},
		NumO: benchProcs * benchSlots, NumA: benchProcs * benchSlots,
		Procs: benchProcs, Slots: benchSlots,
		Input:      splits,
		SpillDisks: env.local,
		Trace:      tr,
		OTask: func(ctx *datampi.Context) error {
			one := u64(1)
			for _, s := range datampi.SplitsForTask(ctx, splits) {
				err := env.fs.ReadLinesInSplit(s, ctx.Proc(), func(line []byte) error {
					for _, w := range bytes.Fields(line) {
						if err := ctx.SendRecord(kv.Record{Key: w, Value: one}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			out, err := env.fs.Create(partName(wcOutput, ctx.Rank()), ctx.Proc())
			if err != nil {
				return err
			}
			w := kv.NewWriter(out)
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return out.Close()
				}
				var sum uint64
				for _, v := range g.Values {
					sum += binary.BigEndian.Uint64(v)
				}
				if err := w.Write(kv.Record{Key: g.Key, Value: u64(sum)}); err != nil {
					return err
				}
			}
		},
	}, nil
}
