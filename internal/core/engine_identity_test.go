package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"datampi/internal/kv"
)

// Counter-identity battery for the transport progress engine and the
// pipeline pools: the same seeded workload runs under {engine defaults,
// shm rings, shm off, a one-worker prepare pool, a one-worker merge pool}
// and the job-level RuntimeCounters must be byte-identical across all
// variants — batching, vectored writes, the link under them and the pool
// widths may only change *wire* behaviour (the mpi.* keys) or timing,
// never what the application sent, combined, or received.

// engineVariants are the configurations proven counter-identical.
var engineVariants = []struct {
	name string
	tune func(*Job)
	shm  bool // run over WithShmTransport instead of the case's transport
}{
	{"engine-on", func(*Job) {}, false},
	// Same-host rings and the ShmOff ablation: the transport under the
	// batches changes, the application-visible counters must not.
	{"shm", func(*Job) {}, true},
	{"shm-off", func(j *Job) { j.Conf.ShmOff = true }, true},
	// Serial pipeline pools: width may only change timing, never data.
	{"prepare-1", func(j *Job) { j.hooks.prepareWorkers = 1 }, false},
	{"merge-1", func(j *Job) { j.hooks.mergeWorkers = 1 }, false},
}

// stripWireCounters drops the mpi.* keys — the only counters an engine
// variant is allowed to move.
func stripWireCounters(rc map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(rc))
	for k, v := range rc {
		if strings.HasPrefix(k, "mpi.") {
			continue
		}
		out[k] = v
	}
	return out
}

// assertEngineIdentity runs the job factory once per engine variant over
// the case's transport options and fails on any non-mpi counter differing
// from the engine-on baseline.
func assertEngineIdentity(t *testing.T, opts []RunOption, run func(tune func(*Job), opts ...RunOption) map[string]int64) {
	t.Helper()
	var base map[string]int64
	for _, v := range engineVariants {
		vopts := opts
		if v.shm {
			vopts = append(slices.Clone(opts), WithShmTransport())
		}
		got := stripWireCounters(run(v.tune, vopts...))
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			for k, w := range base {
				if g, ok := got[k]; !ok || g != w {
					t.Errorf("%s: counter %s = %d, engine-on baseline %d", v.name, k, got[k], w)
				}
			}
			for k := range got {
				if _, ok := base[k]; !ok {
					t.Errorf("%s: extra counter %s = %d absent from engine-on baseline", v.name, k, got[k])
				}
			}
		}
	}
}

func TestEngineCounterIdentityCommon(t *testing.T) {
	t.Parallel()
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		assertEngineIdentity(t, opts, func(tune func(*Job), opts ...RunOption) map[string]int64 {
			// NumO <= Procs*Slots so every task is assigned in the first
			// dispatch wave: task placement (and with it the per-pair
			// counters) is deterministic, making the full-map comparison
			// meaningful instead of timing-dependent.
			recs := genWorkload(71, 4, 120, 20)
			out := newSumCollector(2)
			job := groupedSumJob(Common, recs, 2, 2, nil, out)
			job.Slots = 2
			tune(job)
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out.check(t, oracleSums(recs, 2), true)
			assertBalancedCounters(t, res.RuntimeCounters)
			return res.RuntimeCounters
		})
	})
}

func TestEngineCounterIdentityMapReduce(t *testing.T) {
	t.Parallel()
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		assertEngineIdentity(t, opts, func(tune func(*Job), opts ...RunOption) map[string]int64 {
			// Small key space so the combiner folds records: combine.in/out
			// must survive batching bit-for-bit too.
			recs := genWorkload(73, 4, 150, 8)
			out := newSumCollector(2)
			job := groupedSumJob(MapReduce, recs, 2, 2, sumCombine, out)
			job.Slots = 2 // deterministic first-wave placement, as above
			tune(job)
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out.check(t, oracleSums(recs, 2), true)
			assertBalancedCounters(t, res.RuntimeCounters)
			if res.RuntimeCounters["combine.records.in"] == 0 {
				t.Error("combiner never ran: identity check is vacuous for combine counters")
			}
			return res.RuntimeCounters
		})
	})
}

func TestEngineCounterIdentityIteration(t *testing.T) {
	t.Parallel()
	// Deterministic per-(task, round, index) generation, as in the oracle
	// test, so every variant shuffles exactly the same records.
	iterKey := func(o, r, j int) int64 { return int64((o*31 + r*17 + j) % 11) }
	const numO, numA, rounds, perRound = 2, 2, 3, 60
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		assertEngineIdentity(t, opts, func(tune func(*Job), opts ...RunOption) map[string]int64 {
			var mu sync.Mutex
			sums := make(map[int64]int64)
			job := &Job{
				Mode: Iteration,
				Conf: Config{KeyCodec: kv.Int64, ValueCodec: kv.Int64, Partition: intKeyPartition},
				NumO: numO, NumA: numA, Procs: 2, Slots: 2,
				Rounds: rounds,
				OTask: func(ctx *Context) error {
					if ctx.Round() > 0 {
						for {
							_, _, ok, err := ctx.Recv()
							if err != nil {
								return err
							}
							if !ok {
								break
							}
						}
					}
					for j := 0; j < perRound; j++ {
						if err := ctx.Send(iterKey(ctx.Rank(), ctx.Round(), j), int64(j)); err != nil {
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
						sums[k.(int64)] += v.(int64)
						mu.Unlock()
						count++
					}
					if ctx.Round() == rounds-1 {
						return nil
					}
					for o := 0; o < ctx.CommSize(CommO); o++ {
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
			// Cheap output sanity: total delivered value mass is fixed.
			var total, want int64
			mu.Lock()
			for _, v := range sums {
				total += v
			}
			mu.Unlock()
			want = int64(numO*rounds) * int64(perRound*(perRound-1)/2)
			if total != want {
				t.Fatalf("delivered value mass %d, want %d", total, want)
			}
			assertBalancedCounters(t, res.RuntimeCounters)
			return res.RuntimeCounters
		})
	})
}

func TestEngineCounterIdentityStreaming(t *testing.T) {
	t.Parallel()
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		assertEngineIdentity(t, opts, func(tune func(*Job), opts ...RunOption) map[string]int64 {
			recs := genWorkload(79, 3, 100, 15)
			out := newSumCollector(2)
			job := &Job{
				Mode: Streaming,
				Conf: Config{ValueCodec: kv.Int64, Partition: byteSumPartition},
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
			out.check(t, oracleSums(recs, 2), false) // streams are unordered
			assertBalancedCounters(t, res.RuntimeCounters)
			return res.RuntimeCounters
		})
	})
}
