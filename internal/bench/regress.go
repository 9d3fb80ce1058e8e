package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"datampi/internal/core"
	"datampi/internal/diskio"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// The benchmark-regression harness: a fixed set of shuffle-centric
// micro-benchmarks run through testing.Benchmark, with the runtime shuffle
// counters of one representative run attached to each entry. The output
// snapshot (BENCH_shuffle.json at the repo root) is the baseline future
// runs are compared against — counter drift flags a behavioural change
// (more bytes shuffled, more spills) even when wall time is too noisy to.

// RegressEntry is one benchmark's measurement.
type RegressEntry struct {
	Name        string           `json:"name"`
	Iterations  int              `json:"iterations"`
	NsPerOp     int64            `json:"ns_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// RegressReport is the full snapshot written to BENCH_shuffle.json.
type RegressReport struct {
	GoVersion string         `json:"go_version"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	Quick     bool           `json:"quick"`
	Date      string         `json:"date"`
	Entries   []RegressEntry `json:"entries"`
}

// shuffleKnobs selects a shuffle benchmark's transport configuration:
// mem vs TCP, and the shared-memory ring transport (shm requires tcp;
// shmOff wins over shm, so a fleet-wide -shm-off run turns the
// shuffle/shm entry into a second TCP baseline).
type shuffleKnobs struct {
	tcp    bool
	shm    bool
	shmOff bool
}

// shuffleJob builds a synthetic pure-shuffle run: O tasks emit records
// round-robin over a small key space, A tasks drain groups. No filesystem,
// so the measurement isolates SPL/transport/RPL costs. The key space is
// pre-encoded and values go through the non-boxing AppendInt64 fast path:
// the timed loop exercises SendRecord (the hot-path API), not fmt or
// interface boxing, while emitting byte-identical records to the historic
// Send-based job so the counter baselines stay comparable.
func shuffleJob(records, prepWorkers, mergeWorkers int, k shuffleKnobs, res **core.Result) func() error {
	keys := make([][]byte, 257)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	return func() error {
		job := &core.Job{
			Name: "shuffle",
			Mode: core.MapReduce,
			Conf: core.Config{
				ValueCodec:     kv.Int64,
				PrepareWorkers: prepWorkers,
				MergeWorkers:   mergeWorkers,
				ShmOff:         k.shmOff,
			},
			NumO: 4, NumA: 2, Procs: 2, Slots: 2,
			OTask: func(ctx *core.Context) error {
				// SendRecord copies into the SPL before returning, so one
				// value scratch buffer serves every record.
				var vbuf []byte
				for i := 0; i < records; i++ {
					vbuf = kv.AppendInt64(vbuf[:0], int64(i))
					if err := ctx.SendRecord(kv.Record{Key: keys[i%257], Value: vbuf}); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: func(ctx *core.Context) error {
				for {
					_, ok, err := ctx.NextGroup()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
				}
			},
		}
		var opts []core.RunOption
		switch {
		case k.shm:
			opts = append(opts, core.WithShmTransport())
		case k.tcp:
			opts = append(opts, core.WithTCPTransport())
		}
		r, err := core.Run(job, opts...)
		if err != nil {
			return err
		}
		*res = r
		return nil
	}
}

// aheavyJob builds a merge-heavy run that stresses the A-side receive
// path: a wide key space defeats the combiner, small (64-byte) values keep
// the cost per byte record-bound, and a small memory cache forces the
// Receive Partition List to spill and the background compactor to fold
// on-disk runs. The O side is deliberately cheap — pre-encoded keys, one
// shared value buffer — so the timing isolates the merge pool.
func aheavyJob(records, mergeWorkers int, disks []*diskio.Disk, res **core.Result) func() error {
	keys := make([][]byte, 2048)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
	}
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	return func() error {
		job := &core.Job{
			Name: "shuffle-aheavy",
			Mode: core.MapReduce,
			Conf: core.Config{
				ValueCodec:   kv.Bytes,
				MergeWorkers: mergeWorkers,
				// Fig. 12's near-zero-cache regime: almost every received
				// frame spills, so the receive path is merge/spill-bound.
				MemCacheBytes: 16 << 10,
				SPLBytes:      32 << 10,
			},
			// Several partitions per process: concurrent spills pick
			// different victims, so the merge pool can overlap them.
			NumO: 4, NumA: 8, Procs: 2, Slots: 4,
			SpillDisks: disks,
			OTask: func(ctx *core.Context) error {
				for i := 0; i < records; i++ {
					if err := ctx.SendRecord(kv.Record{Key: keys[i%2048], Value: val}); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: func(ctx *core.Context) error {
				for {
					_, ok, err := ctx.NextGroup()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
				}
			},
		}
		r, err := core.Run(job)
		if err != nil {
			return err
		}
		*res = r
		return nil
	}
}

// lcgReader streams a deterministic pseudo-random value of known length
// without materializing it — the generator for the skew entry's streamed
// values.
type lcgReader struct {
	state uint64
	n     int64
}

func (r *lcgReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 33)
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// skewJob builds the skew-heavy large-value shuffle: every O task streams
// most of its bytes to ONE hot key (so a single A task absorbs nearly the
// whole volume) as values far above the chunk threshold, via
// Context.SendValue. The A tasks stream each value back out through
// Group.ValueReader and count its bytes. The entry measures the chunked
// data plane under the worst-case key distribution — without chunking,
// the hot partition would have to hold every value in memory at once.
func skewJob(valueBytes int64, valsPerTask, chunkBytes int, res **core.Result) func() error {
	return func() error {
		var streamed atomic.Int64
		job := &core.Job{
			Name: "shuffle-skew",
			Mode: core.MapReduce,
			Conf: core.Config{
				ValueCodec: kv.Bytes,
				ChunkBytes: chunkBytes,
			},
			NumO: 4, NumA: 2, Procs: 2, Slots: 2,
			OTask: func(ctx *core.Context) error {
				for i := 0; i < valsPerTask; i++ {
					key := []byte("hot")
					if i == valsPerTask-1 {
						// One cold value per task keeps the second A task
						// non-idle without denting the skew.
						key = []byte(fmt.Sprintf("cold-%d", ctx.Rank()))
					}
					r := &lcgReader{state: uint64(ctx.Rank()*1000+i) | 1, n: valueBytes}
					if err := ctx.SendValue(key, r, valueBytes); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: func(ctx *core.Context) error {
				for {
					g, ok, err := ctx.NextGroup()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
					for i := range g.Values {
						vr, err := g.ValueReader(i)
						if err != nil {
							return err
						}
						n, err := io.Copy(io.Discard, vr)
						if err != nil {
							return err
						}
						streamed.Add(n)
					}
				}
			},
		}
		r, err := core.Run(job)
		if err != nil {
			return err
		}
		if want := valueBytes * int64(valsPerTask) * 4; streamed.Load() != want {
			return fmt.Errorf("bench: shuffle-skew streamed %d bytes, want %d", streamed.Load(), want)
		}
		*res = r
		return nil
	}
}

// ftShuffleJob builds the mem-transport shuffle workload with library
// checkpointing enabled (§IV-E): same record stream as shuffleJob, plus a
// chunk dir that is wiped on every iteration so a clean run never reloads
// the previous iteration's chunks.
func ftShuffleJob(records int, dir string, crashAfter int64, res **core.Result) func() error {
	keys := make([][]byte, 257)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	return func() error {
		if crashAfter == 0 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		job := &core.Job{
			Name: "shuffle-ft",
			Mode: core.MapReduce,
			Conf: core.Config{
				ValueCodec:               kv.Int64,
				FaultTolerance:           true,
				CheckpointDir:            dir,
				CheckpointRecords:        int64(records) / 4,
				InjectFailAfterCPRecords: crashAfter,
			},
			NumO: 4, NumA: 2, Procs: 2, Slots: 2,
			OTask: func(ctx *core.Context) error {
				var vbuf []byte
				for i := 0; i < records; i++ {
					vbuf = kv.AppendInt64(vbuf[:0], int64(i))
					if err := ctx.SendRecord(kv.Record{Key: keys[i%257], Value: vbuf}); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: func(ctx *core.Context) error {
				for {
					_, ok, err := ctx.NextGroup()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
				}
			},
		}
		r, err := core.Run(job)
		if err != nil {
			return err
		}
		*res = r
		return nil
	}
}

// Regress runs the harness. When tr is non-nil, one extra traced WordCount
// run is appended after the timed benchmarks (tracing is never enabled
// inside a timed loop — the snapshot must measure the disabled path).
func Regress(o Opts, quick bool, tr *trace.Tracer) (*RegressReport, error) {
	rep := &RegressReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	var benchErr error
	add := func(name string, lastRes **core.Result, fn func() error) error {
		benchErr = nil
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return fmt.Errorf("bench: %s: %w", name, benchErr)
		}
		e := RegressEntry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if lastRes != nil && *lastRes != nil {
			e.Counters = (*lastRes).RuntimeCounters
		}
		rep.Entries = append(rep.Entries, e)
		return nil
	}

	shuffleRecords := 20000
	if quick {
		shuffleRecords = 4000
	}
	var sres *core.Result
	if err := add("shuffle/mem", &sres, shuffleJob(shuffleRecords, o.PrepareWorkers, o.MergeWorkers, shuffleKnobs{}, &sres)); err != nil {
		return nil, err
	}
	tcpKnobs := shuffleKnobs{tcp: true}
	var tres *core.Result
	if err := add("shuffle/tcp", &tres, shuffleJob(shuffleRecords, o.PrepareWorkers, o.MergeWorkers, tcpKnobs, &tres)); err != nil {
		return nil, err
	}

	// Shared-memory ring transport pair: the same shuffle with every rank
	// pair on the mmap-ed rings, and its ablation (rings disabled, pure
	// TCP). shm vs tcp ns/op is the ring's measured win; shm-off must
	// track shuffle/tcp and carry no mpi.shm.* counters. A fleet-wide
	// -shm-off run (o.ShmOff) disables the rings in both entries.
	shmKnobs := tcpKnobs
	shmKnobs.shm = true
	shmKnobs.shmOff = o.ShmOff
	var tshm *core.Result
	if err := add("shuffle/shm", &tshm,
		shuffleJob(shuffleRecords, o.PrepareWorkers, o.MergeWorkers, shmKnobs, &tshm)); err != nil {
		return nil, err
	}
	soKnobs := shmKnobs
	soKnobs.shmOff = true
	var tsoff *core.Result
	if err := add("shuffle/shm-off", &tsoff,
		shuffleJob(shuffleRecords, o.PrepareWorkers, o.MergeWorkers, soKnobs, &tsoff)); err != nil {
		return nil, err
	}

	// The skew-heavy large-value entry: one hot key absorbing ~64 MiB of
	// streamed values (8 MiB in quick mode) through the chunked data
	// plane. Its blob.* counters are part of the snapshot: drift there
	// means the chunking layer moved different bytes, not just different
	// timing.
	valueBytes, valsPerTask := int64(8<<20), 2
	if quick {
		valueBytes = 1 << 20
	}
	skewChunk := o.ChunkBytes
	if skewChunk <= 0 {
		skewChunk = 256 << 10
	}
	var skres *core.Result
	if err := add("shuffle-skew", &skres,
		skewJob(valueBytes, valsPerTask, skewChunk, &skres)); err != nil {
		return nil, err
	}

	// The A-heavy entry: a spill-bound merge workload through the merge
	// pool at the configured width.
	spillRoot, err := os.MkdirTemp("", "dmpi-bench-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillRoot)
	disks := make([]*diskio.Disk, 2)
	for i := range disks {
		d, err := diskio.New(filepath.Join(spillRoot, fmt.Sprintf("d%d", i)))
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	aheavyRecords := 12000
	if quick {
		aheavyRecords = 3000
	}
	var ares *core.Result
	if err := add("shuffle-aheavy/mem", &ares,
		aheavyJob(aheavyRecords, o.MergeWorkers, disks, &ares)); err != nil {
		return nil, err
	}

	// The checkpoint pair: the same mem shuffle with checkpointing off and
	// with the background committer. The async/off ns delta is the
	// checkpoint overhead, stamped on the async entry as cp.overhead.bp.
	cpRoot, err := os.MkdirTemp("", "dmpi-bench-cp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cpRoot)
	var coff *core.Result
	if err := add("checkpoint/off", &coff, shuffleJob(shuffleRecords, 0, 0, shuffleKnobs{}, &coff)); err != nil {
		return nil, err
	}
	var casync *core.Result
	if err := add("checkpoint/async", &casync,
		ftShuffleJob(shuffleRecords, filepath.Join(cpRoot, "async"), 0, &casync)); err != nil {
		return nil, err
	}
	stampCheckpointOverhead(rep.Entries)

	// Recovery measurement (single shot, not a timed loop): crash the
	// checkpointed shuffle once roughly half its records are durable, then
	// time the recovery run over the same chunk dir. The ratio counter
	// records what each lost record — one the crash forced the rerun to
	// recompute rather than reload — costs in recovery time.
	rdir := filepath.Join(cpRoot, "recovery")
	totalRecords := int64(4 * shuffleRecords)
	var rres *core.Result
	if err := ftShuffleJob(shuffleRecords, rdir, totalRecords/2, &rres)(); !errors.Is(err, core.ErrInjectedFailure) {
		return nil, fmt.Errorf("bench: checkpoint/recovery crash run: %v", err)
	}
	rstart := time.Now()
	var rec *core.Result
	if err := ftShuffleJob(shuffleRecords, rdir, -1, &rec)(); err != nil {
		return nil, fmt.Errorf("bench: checkpoint/recovery rerun: %w", err)
	}
	recoveryNs := time.Since(rstart).Nanoseconds()
	lost := totalRecords - rec.RecordsReloaded
	if lost < 1 {
		lost = 1
	}
	rcounters := map[string]int64{
		"recovery.reloaded.records":   rec.RecordsReloaded,
		"recovery.lost.records":       lost,
		"recovery.ns.per.lost.record": recoveryNs / lost,
	}
	for k, v := range rec.RuntimeCounters {
		rcounters[k] = v
	}
	rep.Entries = append(rep.Entries, RegressEntry{
		Name:       "checkpoint/recovery",
		Iterations: 1,
		NsPerOp:    recoveryNs,
		Counters:   rcounters,
	})

	// WordCount end-to-end (the tier-1 shuffle workload): one shared env,
	// the job reruns over the same input every iteration.
	env, err := NewEnv(EnvConfig{Nodes: 2, BlockSize: 16 << 10})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	lines := o.TextLines
	if lines <= 0 {
		lines = 2000
	}
	if err := TextGen(env.FS, "/wc/in", lines, 10, 1000, 42); err != nil {
		return nil, err
	}
	var wres *core.Result
	if err := add("wordcount", &wres, func() error {
		r, err := DataMPIWordCount(env, "/wc/in", 0, 0, Instr{})
		if err != nil {
			return err
		}
		wres = r
		return nil
	}); err != nil {
		return nil, err
	}

	if tr != nil {
		if _, err := DataMPIWordCount(env, "/wc/in", 0, 0, Instr{Trace: tr}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// stampCheckpointOverhead records the checkpoint overhead on the
// checkpoint/async entry as cp.overhead.bp: its ns/op in basis points
// over the checkpoint/off entry (100 bp = 1%). Entries are found by
// name; without both, or with a zero baseline, nothing is stamped.
func stampCheckpointOverhead(entries []RegressEntry) {
	var off, async *RegressEntry
	for i := range entries {
		switch entries[i].Name {
		case "checkpoint/off":
			off = &entries[i]
		case "checkpoint/async":
			async = &entries[i]
		}
	}
	if off == nil || async == nil || off.NsPerOp <= 0 {
		return
	}
	if async.Counters == nil {
		async.Counters = map[string]int64{}
	}
	async.Counters["cp.overhead.bp"] = 10000 * (async.NsPerOp - off.NsPerOp) / off.NsPerOp
}

// WriteRegress writes the snapshot as indented JSON.
func WriteRegress(rep *RegressReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRegress loads a snapshot.
func ReadRegress(path string) (*RegressReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep RegressReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// CompareRegress renders a human-readable delta report of cur vs base.
// Timing deltas are informational (CI does not gate on them); counter
// deltas in the shuffle totals usually mean a real behavioural change.
func CompareRegress(base, cur *RegressReport) []string {
	byName := map[string]RegressEntry{}
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	var out []string
	for _, e := range cur.Entries {
		b, ok := byName[e.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: new benchmark (no baseline)", e.Name))
			continue
		}
		pct := func(old, new int64) float64 {
			if old == 0 {
				return 0
			}
			return 100 * (float64(new) - float64(old)) / float64(old)
		}
		out = append(out, fmt.Sprintf("%s: %d ns/op vs %d baseline (%+.1f%%), %d B/op (%+.1f%%), %d allocs/op (%+.1f%%)",
			e.Name, e.NsPerOp, b.NsPerOp, pct(b.NsPerOp, e.NsPerOp),
			e.BytesPerOp, pct(b.BytesPerOp, e.BytesPerOp),
			e.AllocsPerOp, pct(b.AllocsPerOp, e.AllocsPerOp)))
		for _, key := range []string{"shuffle.bytes.sent", "shuffle.records.sent", "spill.bytes.written"} {
			if b.Counters[key] != e.Counters[key] {
				out = append(out, fmt.Sprintf("  %s counter %s: %d vs %d baseline",
					e.Name, key, e.Counters[key], b.Counters[key]))
			}
		}
	}
	return out
}
