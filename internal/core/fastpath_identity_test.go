package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/kv"
	"datampi/internal/metrics"
)

// Fast-path identity: a job that leaves Compare unset sorts and merges in
// raw-byte order through kv's key-prefix column; without a combiner (the
// terasort shape) each sealed frame stays bytes and is sorted by
// kv.SortFramed, and with one it combines as it emits, each SPL partition
// a kv.CombineTable. The same job with Compare set to an equivalent
// closure takes the generic comparator path, decoding every frame into
// records, or encoding every record into the SPL, and sorting before it
// combines. Both must deliver the same records in the same order —
// including the order of equal keys, which NextGroup exposes as value
// order — count the same work and move the same bytes, commit
// byte-identical checkpoint chunks, and give every byte charged to the
// memory gauge back, through the plain shuffle, the spill and compaction
// merges, a checkpoint crash/restart, the serial O side
// (OSidePipelineOff), and a raw Streaming job whose frames seal by record
// count.
//
// Every job has one O task, one merge worker and one partition per
// process, so the runs each partition receives arrive, spill and compact
// in a fixed order: run order is a function of the input, and the two
// paths can be compared record for record. The crash/restart pair runs on
// one process, so the reloaded frames and the re-run's frames leave
// through one ordered send queue instead of racing from two.

// rawOrderClosure is DefaultCompare behind a different func value: it
// orders exactly like the fast path but cannot be recognised as raw order.
var rawOrderClosure kv.Compare = func(a, b []byte) int { return bytes.Compare(a, b) }

// teraShapeKeys draws 10-byte printable keys from a small pool, so most
// keys repeat, plus keys sharing one 8-byte prefix and zero-padded
// byte-prefixes of each other — the ties the prefix column must break
// exactly as the full comparator does.
func teraShapeKeys(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, 64)
	for i := range pool {
		k := make([]byte, 10)
		for j := range k {
			k[j] = byte(' ' + rng.Intn(95))
		}
		pool[i] = k
	}
	pool = append(pool, []byte("prefix00a"), []byte("prefix00"), []byte("prefix00\x00"),
		[]byte("p"), []byte("p\x00"), []byte("p\x00\x00"), []byte{})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = pool[rng.Intn(len(pool))]
	}
	return keys
}

// wcShapeWords mixes words that share 8-byte prefixes with short ones.
func wcShapeWords(seed int64, n int) [][]byte {
	vocab := []string{"alphabet", "alphabetical", "alphabetic", "alpha", "al", "a",
		"the", "fox", "dog", "sleeps", "mapreduce", "mapreducer", "mpi", "m", "datampi"}
	rng := rand.New(rand.NewSource(seed))
	words := make([][]byte, n)
	for i := range words {
		words[i] = []byte(vocab[rng.Intn(len(vocab))])
	}
	return words
}

// firstBytePartition range-partitions by the key's first byte (empty keys
// go to partition 0), like TeraSort's partitioner.
func firstBytePartition(key, _ []byte, numA int) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]) * numA / 256
}

// identityOutput is everything a run delivered, per partition, in order.
type identityOutput struct {
	mu    sync.Mutex
	lines [][]string
}

func (o *identityOutput) add(part int, line string) {
	o.mu.Lock()
	o.lines[part] = append(o.lines[part], line)
	o.mu.Unlock()
}

// sumValues is WordCount's combiner over 8-byte counts.
func sumValues(vals [][]byte) uint64 {
	var sum uint64
	for _, v := range vals {
		sum += binary.BigEndian.Uint64(v)
	}
	return sum
}

// identityCombiners are the WordCount-shaped jobs' combiners, by shape.
var identityCombiners = map[string]kv.Combine{
	"wordcount": func(_ []byte, vals [][]byte) [][]byte {
		return [][]byte{binary.BigEndian.AppendUint64(nil, sumValues(vals))}
	},
	// Joins the values in arrival order, so any reordering of a key's
	// values within a frame changes the bytes on the wire.
	"wordcount-concat": func(_ []byte, vals [][]byte) [][]byte {
		return [][]byte{bytes.Join(vals, nil)}
	},
	"wordcount-two": func(_ []byte, vals [][]byte) [][]byte {
		return [][]byte{binary.BigEndian.AppendUint64(nil, sumValues(vals)), binary.BigEndian.AppendUint64(nil, uint64(len(vals)))}
	},
}

// identityJob builds one of the job shapes. TeraSort-shaped: unique
// values, A tasks drain RecvRecord. WordCount-shaped: a combiner from
// identityCombiners, A tasks read NextGroup and record every group's
// values in order.
func identityJob(shape string, n int, out *identityOutput) *Job {
	numA := 2
	out.lines = make([][]string, numA)
	job := &Job{
		Mode: MapReduce,
		Conf: Config{
			KeyCodec: kv.Bytes, ValueCodec: kv.Bytes,
			Partition: firstBytePartition,
			SPLBytes:  256,
		},
		NumO: 1, NumA: numA, Procs: 2, Slots: 2,
	}
	job.hooks.mergeWorkers = 1
	switch shape {
	case "terasort":
		keys := teraShapeKeys(41, n)
		job.OTask = func(ctx *Context) error {
			for i, k := range keys {
				if err := ctx.SendRecord(kv.Record{Key: k, Value: []byte(fmt.Sprintf("v%05d", i))}); err != nil {
					return err
				}
			}
			return nil
		}
		job.ATask = func(ctx *Context) error {
			for {
				rec, ok, err := ctx.RecvRecord()
				if err != nil || !ok {
					return err
				}
				out.add(ctx.Rank(), fmt.Sprintf("%q=%s", rec.Key, rec.Value))
			}
		}
	case "stream-wordcount":
		// Raw Streaming with a combiner: no time-based drains, and a credit
		// window small enough that frames seal at its record cap (half the
		// window) long before SPLBytes. A tasks see each frame's combined
		// records in arrival order, which one O task makes fixed.
		words := wcShapeWords(47, n)
		job.Mode = Streaming
		job.Conf.Combine = identityCombiners["wordcount-concat"]
		job.Conf.FlushInterval = time.Hour
		job.Conf.SPLBytes = 1 << 20
		job.hooks.creditWindow = 64
		job.OTask = func(ctx *Context) error {
			for i, w := range words {
				if err := ctx.SendRecord(kv.Record{Key: w, Value: []byte(fmt.Sprintf("%07d;", i))}); err != nil {
					return err
				}
			}
			return nil
		}
		job.ATask = func(ctx *Context) error {
			for {
				rec, ok, err := ctx.RecvRecord()
				if err != nil || !ok {
					return err
				}
				out.add(ctx.Rank(), fmt.Sprintf("%q=%s", rec.Key, rec.Value))
			}
		}
	default:
		words := wcShapeWords(43, n)
		job.Conf.Combine = identityCombiners[shape]
		job.OTask = func(ctx *Context) error {
			for i, w := range words {
				// Distinct per-record counts make the partial sums — and so
				// the value order NextGroup returns — depend on run order.
				val := binary.BigEndian.AppendUint64(nil, uint64(i%7+1))
				if shape == "wordcount-concat" {
					// Record numbers make every value, and so every
					// concatenation order, distinct. Eight bytes, like the
					// counts, keep the frames, and so the combined record
					// count the crash threshold is set against, the same.
					val = []byte(fmt.Sprintf("%07d;", i))
				}
				if err := ctx.SendRecord(kv.Record{Key: w, Value: val}); err != nil {
					return err
				}
			}
			return nil
		}
		job.ATask = func(ctx *Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil || !ok {
					return err
				}
				out.add(ctx.Rank(), fmt.Sprintf("%q=%x", g.Key, g.Values))
			}
		}
	}
	return job
}

// workCounter reports whether the two paths must agree on a counter.
func workCounter(name string) bool {
	return strings.HasPrefix(name, "shuffle.") || strings.HasPrefix(name, "combine.") ||
		name == "mpi.bytes.sent" || name == "mpi.bytes.received"
}

type identityRun struct {
	lines    [][]string
	counters map[string]int64
	chunks   map[string]string // checkpoint chunk file name -> contents
}

// runIdentityCase runs one shape under one comparator and one scenario.
func runIdentityCase(t *testing.T, shape, scenario string, cmp kv.Compare, opts []RunOption) identityRun {
	t.Helper()
	const n = 3000
	var out identityOutput
	job := identityJob(shape, n, &out)
	job.Conf.Compare = cmp
	job.Mem = new(metrics.Gauge)
	var cpDir string
	switch scenario {
	case "pipeline-off":
		job.Conf.OSidePipelineOff = true
	case "spill":
		job.Conf.MemCacheBytes = 1 << 10
		job.hooks.spillCompactFanIn = 4
		for i := 0; i < job.Procs; i++ {
			d, err := diskio.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			job.SpillDisks = append(job.SpillDisks, d)
		}
	case "crash-restart":
		dir := t.TempDir()
		var crashed identityOutput
		crash := identityJob(shape, n, &crashed)
		crash.Conf.Compare = cmp
		crash.Conf.FaultTolerance, crash.Conf.CheckpointDir = true, dir
		crash.Conf.CheckpointRecords = 200
		crash.Conf.InjectFailAfterCPRecords = n / 2
		crash.Procs = 1
		if _, err := Run(crash, opts...); !errors.Is(err, ErrInjectedFailure) {
			t.Fatalf("crash run: want ErrInjectedFailure, got %v", err)
		}
		job.Conf.FaultTolerance, job.Conf.CheckpointDir = true, dir
		job.Conf.CheckpointRecords = 200
		job.Procs = 1
		cpDir = dir
	}
	res, err := Run(job, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rc := res.RuntimeCounters
	switch scenario {
	case "spill":
		if rc["spill.files"] == 0 || rc["spill.compactions"] == 0 {
			t.Fatalf("spill scenario spilled %d files, compacted %d times: merges not exercised",
				rc["spill.files"], rc["spill.compactions"])
		}
	case "crash-restart":
		if res.RecordsReloaded == 0 {
			t.Fatal("restart reloaded nothing")
		}
	}
	if v := job.Mem.Value(); v != 0 {
		t.Errorf("memory gauge ends at %d bytes, want 0", v)
	}
	run := identityRun{lines: out.lines, counters: map[string]int64{}}
	for k, v := range rc {
		if workCounter(k) {
			run.counters[k] = v
		}
	}
	if cpDir != "" {
		files, err := filepath.Glob(filepath.Join(cpDir, "*.done"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no checkpoint chunks under %s (%v)", cpDir, err)
		}
		run.chunks = map[string]string{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			run.chunks[filepath.Base(f)] = string(b)
		}
	}
	return run
}

func TestRawOrderFastPathIdentity(t *testing.T) {
	t.Parallel()
	transports := []struct {
		name string
		opts []RunOption
	}{{"mem", nil}, {"tcp", []RunOption{WithTCPTransport()}}}
	scenarios := map[string][]string{"stream-wordcount": {"plain", "pipeline-off"}}
	for _, tr := range transports {
		for _, shape := range []string{"terasort", "wordcount", "wordcount-concat", "wordcount-two", "stream-wordcount"} {
			shapeScenarios := scenarios[shape]
			if shapeScenarios == nil {
				shapeScenarios = []string{"plain", "spill", "crash-restart", "pipeline-off"}
			}
			for _, scenario := range shapeScenarios {
				t.Run(tr.name+"/"+shape+"/"+scenario, func(t *testing.T) {
					fast := runIdentityCase(t, shape, scenario, nil, tr.opts)
					generic := runIdentityCase(t, shape, scenario, rawOrderClosure, tr.opts)
					if !reflect.DeepEqual(fast.counters, generic.counters) {
						t.Errorf("work counters: fast path %v, generic %v", fast.counters, generic.counters)
					}
					if !reflect.DeepEqual(fast.chunks, generic.chunks) {
						t.Errorf("checkpoint chunks differ: fast path %d files, generic %d", len(fast.chunks), len(generic.chunks))
					}
					total := 0
					for p := range fast.lines {
						f, g := fast.lines[p], generic.lines[p]
						total += len(f)
						if len(f) != len(g) {
							t.Fatalf("A%d: fast path delivered %d lines, generic %d", p, len(f), len(g))
						}
						for i := range f {
							if f[i] != g[i] {
								t.Fatalf("A%d line %d: fast path %s, generic %s", p, i, f[i], g[i])
							}
						}
					}
					if total == 0 {
						t.Fatal("no output: identity check is vacuous")
					}
				})
			}
		}
	}
}
