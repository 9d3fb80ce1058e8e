package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/fault"
	"datampi/internal/kv"
)

// Pipeline ordering tests: the O-side prepare pool processes sealed
// buffers out of order, and the A-side merge pool ingests received runs
// out of order, so these runs — every mode, both transports, one worker
// and many on both sides — prove the ordering guarantees the hard way.
// If an end-of-phase marker ever overtook data on a per-(source, tag)
// FIFO, or the receiver finalized a merge state while frames were still
// pending in the merge pool, late records would be dropped and the
// oracle comparison plus the counter-balance check below would both fail.

// pipelineConfigs is the pipeline matrix every scenario runs under: the
// O-side serial ablation path, and on each side a single async worker and
// a pool wider than GOMAXPROCS on small machines (out-of-order completion
// either way).
func pipelineConfigs(t *testing.T, fn func(t *testing.T, tune func(*Job))) {
	cases := []struct {
		name string
		tune func(*Job)
	}{
		{"serial", func(j *Job) { j.Conf.OSidePipelineOff = true }},
		{"workers=1", func(j *Job) { j.hooks.prepareWorkers = 1 }},
		{"workers=4", func(j *Job) { j.hooks.prepareWorkers = 4 }},
		{"merge-workers=1", func(j *Job) { j.hooks.mergeWorkers = 1 }},
		{"merge-workers=4", func(j *Job) { j.hooks.mergeWorkers = 4 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { fn(t, tc.tune) })
	}
}

// TestPipelineOracleBatchModes runs the Common and MapReduce oracle jobs
// across the full prepare matrix on both transports. SPLBytes is tiny so
// every task seals many buffers and the prepare pool genuinely reorders
// work between submission and transmit.
func TestPipelineOracleBatchModes(t *testing.T) {
	for _, mode := range []Mode{Common, MapReduce} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			pipelineConfigs(t, func(t *testing.T, tune func(*Job)) {
				transportCases(t, func(t *testing.T, opts ...RunOption) {
					recs := genWorkload(41, 3, 150, 12)
					out := newSumCollector(3)
					var combine kv.Combine
					if mode == MapReduce {
						combine = sumCombine
					}
					job := groupedSumJob(mode, recs, 3, 2, combine, out)
					job.Conf.SPLBytes = 128
					tune(job)
					res, err := Run(job, opts...)
					if err != nil {
						t.Fatal(err)
					}
					out.check(t, oracleSums(recs, 3), true)
					assertBalancedCounters(t, res.RuntimeCounters)
				})
			})
		})
	}
}

// TestPipelineOracleStreamingMode covers the unsorted stream path, where
// frames skip the prepare stage entirely but still share the ordered
// transmit queue with flush markers.
func TestPipelineOracleStreamingMode(t *testing.T) {
	pipelineConfigs(t, func(t *testing.T, tune func(*Job)) {
		transportCases(t, func(t *testing.T, opts ...RunOption) {
			recs := genWorkload(43, 3, 120, 20)
			out := newSumCollector(2)
			job := &Job{
				Mode: Streaming,
				Conf: Config{ValueCodec: kv.Int64, Partition: byteSumPartition, SPLBytes: 128},
				NumO: 3, NumA: 2, Procs: 2, Slots: 2,
				OTask: func(ctx *Context) error {
					for _, r := range recs[ctx.Rank()] {
						if err := ctx.Send(r.key, r.val); err != nil {
							return err
						}
					}
					return nil
				},
				ATask: func(ctx *Context) error {
					for {
						k, v, ok, err := ctx.Recv()
						if err != nil {
							return err
						}
						if !ok {
							return nil
						}
						out.add(ctx.Rank(), k.(string), v.(int64))
					}
				},
			}
			tune(job)
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out.check(t, oracleSums(recs, 2), false)
			assertBalancedCounters(t, res.RuntimeCounters)
		})
	})
}

// TestPipelineOracleIterationMode exercises both shuffle directions: the
// forward and reverse exchanges interleave on the same send queue, so
// their end markers must each stay behind their own direction's data.
func TestPipelineOracleIterationMode(t *testing.T) {
	const (
		numO, numA, rounds = 2, 2, 3
		perRound, keySpace = 60, 11
	)
	iterKey := func(o, r, j int) int64 { return int64((o*29 + r*13 + j) % keySpace) }
	iterVal := func(o, r, j int) int64 { return int64(o + r*5 + j%7 + 1) }

	pipelineConfigs(t, func(t *testing.T, tune func(*Job)) {
		transportCases(t, func(t *testing.T, opts ...RunOption) {
			var mu sync.Mutex
			gotSums := make([]map[int64]int64, numA)
			for a := range gotSums {
				gotSums[a] = map[int64]int64{}
			}
			var feedback int64

			job := &Job{
				Mode: Iteration,
				Conf: Config{
					KeyCodec: kv.Int64, ValueCodec: kv.Int64,
					Partition: intKeyPartition, SPLBytes: 128,
				},
				NumO: numO, NumA: numA, Procs: 2, Slots: 2,
				Rounds: rounds,
				OTask: func(ctx *Context) error {
					if ctx.Round() > 0 {
						n := 0
						for {
							_, v, ok, err := ctx.Recv()
							if err != nil {
								return err
							}
							if !ok {
								break
							}
							mu.Lock()
							feedback += v.(int64)
							mu.Unlock()
							n++
						}
						if n != numA {
							return fmt.Errorf("O%d round %d: %d feedback records, want %d",
								ctx.Rank(), ctx.Round(), n, numA)
						}
					}
					for j := 0; j < perRound; j++ {
						if err := ctx.Send(iterKey(ctx.Rank(), ctx.Round(), j),
							iterVal(ctx.Rank(), ctx.Round(), j)); err != nil {
							return err
						}
					}
					return nil
				},
				ATask: func(ctx *Context) error {
					var count int64
					for {
						k, v, ok, err := ctx.Recv()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						mu.Lock()
						gotSums[ctx.Rank()][k.(int64)] += v.(int64)
						mu.Unlock()
						count++
					}
					if ctx.Round() == rounds-1 {
						return nil
					}
					for o := 0; o < numO; o++ {
						if err := ctx.Send(int64(o), count); err != nil {
							return err
						}
					}
					return nil
				},
			}
			tune(job)
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}

			wantSums := make([]map[int64]int64, numA)
			for a := range wantSums {
				wantSums[a] = map[int64]int64{}
			}
			var wantFB int64
			for r := 0; r < rounds; r++ {
				count := make([]int64, numA)
				for o := 0; o < numO; o++ {
					for j := 0; j < perRound; j++ {
						k := iterKey(o, r, j)
						a := int(k) % numA
						wantSums[a][k] += iterVal(o, r, j)
						count[a]++
					}
				}
				if r < rounds-1 {
					// Every O task hears every A task's count next round.
					for a := 0; a < numA; a++ {
						wantFB += count[a] * numO
					}
				}
			}

			mu.Lock()
			for a := range wantSums {
				if len(gotSums[a]) != len(wantSums[a]) {
					t.Errorf("A%d: %d keys, oracle has %d", a, len(gotSums[a]), len(wantSums[a]))
				}
				for k, w := range wantSums[a] {
					if got := gotSums[a][k]; got != w {
						t.Errorf("A%d key %d: sum %d, oracle %d", a, k, got, w)
					}
				}
			}
			if feedback != wantFB {
				t.Errorf("feedback total %d, oracle %d", feedback, wantFB)
			}
			mu.Unlock()
			assertBalancedCounters(t, res.RuntimeCounters)
		})
	})
}

// TestPipelineOracleSpillCompaction forces heavy spilling with a tiny
// memory cache and a compaction fan-in of 2, so the background compactor
// k-way merges on-disk runs while frames are still arriving. The oracle
// comparison proves compacted runs lose nothing; the counters prove
// compaction actually fired and each pass merged at least fan-in runs.
func TestPipelineOracleSpillCompaction(t *testing.T) {
	pipelineConfigs(t, func(t *testing.T, tune func(*Job)) {
		recs := genWorkload(53, 3, 200, 12)
		out := newSumCollector(2)
		job := groupedSumJob(MapReduce, recs, 2, 2, nil, out)
		job.Conf.SPLBytes = 128
		job.Conf.MemCacheBytes = 256 // nearly every received run spills
		job.hooks.spillCompactFanIn = 2
		disks := make([]*diskio.Disk, job.Procs)
		for p := range disks {
			d, err := diskio.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			disks[p] = d
		}
		job.SpillDisks = disks
		tune(job)
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out.check(t, oracleSums(recs, 2), true)
		assertBalancedCounters(t, res.RuntimeCounters)
		rc := res.RuntimeCounters
		if rc["spill.compactions"] == 0 {
			t.Error("no background compaction fired despite a 256-byte cache")
		}
		if rc["spill.compact.runs"] < 2*rc["spill.compactions"] {
			t.Errorf("compaction merged too few runs: %d passes, %d runs",
				rc["spill.compactions"], rc["spill.compact.runs"])
		}
	})
}

// TestPipelineOrderingUnderLinkChaos combines the parallel prepare pool
// with probabilistic link delays (and TCP connection resets): per-pair
// delivery order survives both reordered prepare completion and transport
// retries, so the output and counters stay exact.
func TestPipelineOrderingUnderLinkChaos(t *testing.T) {
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		recs := genWorkload(47, 3, 150, 10)
		out := newSumCollector(3)
		job := groupedSumJob(MapReduce, recs, 3, 2, sumCombine, out)
		job.Conf.SPLBytes = 128
		job.hooks.prepareWorkers = 4
		job.hooks.FaultPlan = fault.LinkChaos(0xFACADE, 0.2, time.Millisecond)
		res, err := runWithDeadline(t, job, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out.check(t, oracleSums(recs, 3), true)
		assertBalancedCounters(t, res.RuntimeCounters)
	})
}
