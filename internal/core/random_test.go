package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datampi/internal/diskio"
	"datampi/internal/kv"
)

// TestRandomizedConfigurations is an end-to-end property test: across
// random combinations of task counts, process counts, slots, buffer
// thresholds, spill caches, transports and ablation flags, a word-count
// job must always produce exactly correct counts — no record lost,
// duplicated, or misrouted.
func TestRandomizedConfigurations(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(20140519)) // the conference date
	for i := 0; i < iters; i++ {
		numO := 1 + rng.Intn(6)
		numA := 1 + rng.Intn(6)
		procs := 1 + rng.Intn(4)
		slots := 1 + rng.Intn(3)
		splBytes := 64 << rng.Intn(6)
		useSpill := rng.Intn(2) == 1
		pipelineOff := rng.Intn(4) == 0
		mergeWorkers := rng.Intn(5)                // 0 selects the GOMAXPROCS default
		compactFan := []int{0, -1, 2}[rng.Intn(3)] // default, never, aggressive
		dataCentricOff := rng.Intn(4) == 0
		tcp := rng.Intn(5) == 0
		words := 100 + rng.Intn(900)

		name := fmt.Sprintf("i%d_O%dA%dP%dS%d_spl%d_spill%v_po%v_mw%d_cf%d_dc%v_tcp%v",
			i, numO, numA, procs, slots, splBytes, useSpill, pipelineOff, mergeWorkers, compactFan, dataCentricOff, tcp)
		t.Run(name, func(t *testing.T) {
			docs := make([][]string, numO)
			for w := 0; w < words; w++ {
				d := rng.Intn(numO)
				docs[d] = append(docs[d], fmt.Sprintf("w%03d", rng.Intn(97)))
			}
			var out collector
			job := wordCountJob(docs, numA, procs, &out)
			job.Slots = slots
			job.Conf.SPLBytes = splBytes
			job.Conf.OSidePipelineOff = pipelineOff
			job.hooks.mergeWorkers = mergeWorkers
			job.hooks.spillCompactFanIn = compactFan
			if compactFan < 0 {
				job.hooks.spillCompactFanIn = math.MaxInt // no partition reaches it
			}
			job.Conf.DataCentricOff = dataCentricOff
			if useSpill {
				disks := make([]*diskio.Disk, procs)
				for p := range disks {
					d, err := diskio.New(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					disks[p] = d
				}
				job.SpillDisks = disks
				job.Conf.MemCacheBytes = int64(1 + rng.Intn(2048))
			}
			var opts []RunOption
			if tcp {
				opts = append(opts, WithTCPTransport())
			}
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(t, &out, wantCounts(docs))
			if res.RecordsSent != int64(words) {
				t.Errorf("sent %d records, want %d", res.RecordsSent, words)
			}
		})
	}
}

// TestRandomizedIterationRounds checks the bi-directional exchange under
// random shapes: the deterministic recurrence must hold for any geometry.
func TestRandomizedIterationRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		numO := 1 + rng.Intn(5)
		numA := 1 + rng.Intn(4)
		procs := 1 + rng.Intn(3)
		rounds := 1 + rng.Intn(4)
		t.Run(fmt.Sprintf("O%dA%dP%dR%d", numO, numA, procs, rounds), func(t *testing.T) {
			// Every O task sends its rank+round to every A task id; every A
			// task echoes the count of records it received back to all O
			// tasks. Verify totals at the end.
			totals := make([]int64, numO)
			var sum int64
			job := &Job{
				Mode: Iteration,
				Conf: Config{KeyCodec: kv.Int64, ValueCodec: kv.Int64, Partition: intKeyPartition},
				NumO: numO, NumA: numA, Procs: procs, Slots: 2,
				Rounds: rounds,
				OTask: func(ctx *Context) error {
					for {
						_, v, ok, err := ctx.Recv()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						totals[ctx.Rank()] += v.(int64)
					}
					for a := 0; a < ctx.CommSize(CommA); a++ {
						if err := ctx.Send(int64(a), int64(ctx.Rank()+ctx.Round())); err != nil {
							return err
						}
					}
					return nil
				},
				ATask: func(ctx *Context) error {
					var n int64
					for {
						_, _, ok, err := ctx.Recv()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						n++
					}
					for o := 0; o < ctx.CommSize(CommO); o++ {
						if err := ctx.Send(int64(o), n); err != nil {
							return err
						}
					}
					return nil
				},
			}
			if _, err := Run(job); err != nil {
				t.Fatal(err)
			}
			for _, tt := range totals {
				sum += tt
			}
			// Each round r: every A receives numO records (one per O task),
			// echoes numO to each O task. O tasks consume feedback in rounds
			// 1..rounds-1: per round, numA * numO per task.
			want := int64(numO) * int64(numA) * int64(numO) * int64(rounds-1)
			if sum != want {
				t.Errorf("feedback total %d, want %d", sum, want)
			}
		})
	}
}
