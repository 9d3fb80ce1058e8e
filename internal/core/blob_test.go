package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"datampi/internal/fault"
	"datampi/internal/kv"
	"datampi/internal/mpi"
)

// patternReader streams a deterministic byte pattern derived from a seed
// without ever holding the value in memory — the generator side of the
// sequential oracle for streamed values.
type patternReader struct {
	state uint64
	n     int64
}

func newPatternReader(seed string, n int64) *patternReader {
	h := fnv.New64a()
	h.Write([]byte(seed))
	return &patternReader{state: h.Sum64() | 1, n: n}
}

func (r *patternReader) Read(p []byte) (int, error) {
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

// valueDigest is the oracle: stream the same pattern through a hash.
func valueDigest(seed string, n int64) string {
	h := fnv.New64a()
	if _, err := io.Copy(h, newPatternReader(seed, n)); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%d:%x", n, h.Sum64())
}

// blobSink records what the A tasks streamed out of their groups.
type blobSink struct {
	mu      sync.Mutex
	digests map[string]string
	inline  map[string]int // len(g.Values[i]) per key: placeholders stay 24B
}

func newBlobSink() *blobSink {
	return &blobSink{digests: map[string]string{}, inline: map[string]int{}}
}

// blobJob sends values of the given sizes (key -> value length) from O
// tasks via SendValue and hash-verifies them in the A tasks through
// Group.ValueReader, alongside ordinary small records on the same stream.
func blobJob(sizes map[string]int64, numO, numA, procs int, sink *blobSink) *Job {
	// Sorted: checkpoint replay requires a task's re-run to emit the
	// identical sequence, so the emission order must be deterministic.
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return &Job{
		Name: "blobcheck",
		Mode: MapReduce,
		Conf: Config{ChunkBytes: 8 << 10},
		NumO: numO, NumA: numA, Procs: procs,
		OTask: func(ctx *Context) error {
			for i, k := range keys {
				if i%numO != ctx.Rank() {
					continue
				}
				n := sizes[k]
				if err := ctx.SendValue([]byte(k), newPatternReader(k, n), n); err != nil {
					return err
				}
				// Ordinary records interleave with the streamed values.
				small := kv.Record{Key: []byte("small-" + k), Value: []byte{byte(i)}}
				if err := ctx.SendRecord(small); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				for i := range g.Values {
					r, err := g.ValueReader(i)
					if err != nil {
						return err
					}
					h := fnv.New64a()
					n, err := io.Copy(h, r)
					if err != nil {
						return err
					}
					sink.mu.Lock()
					sink.digests[string(g.Key)] = fmt.Sprintf("%d:%x", n, h.Sum64())
					sink.inline[string(g.Key)] = len(g.Values[i])
					sink.mu.Unlock()
				}
			}
		},
	}
}

// blobSizes: values below, at, and far above the chunk threshold — the
// largest spanning over a hundred chunks.
func blobSizes() map[string]int64 {
	return map[string]int64{
		"tiny":     100,
		"at-th":    8 << 10,
		"over-th":  (8 << 10) + 1,
		"mid":      100 << 10,
		"overcap":  1 << 20,
		"overcap2": (1 << 20) + 12345,
	}
}

// TestSendValueOracle runs the streamed-value job on all three transports
// and checks every value arrives byte-identical to the sequential oracle,
// with large values never materializing in the merge path (their Group
// entry stays the 24-byte placeholder).
func TestSendValueOracle(t *testing.T) {
	sizes := blobSizes()
	for _, tc := range []struct {
		name string
		opts []RunOption
	}{
		{"mem", nil},
		{"tcp", []RunOption{WithTCPTransport()}},
		{"shm", []RunOption{WithShmTransport()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sink := newBlobSink()
			job := blobJob(sizes, 2, 2, 2, sink)
			res, err := Run(job, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k, n := range sizes {
				if got, want := sink.digests[k], valueDigest(k, n); got != want {
					t.Errorf("value %q: digest %s, want %s", k, got, want)
				}
				if n > 8<<10 {
					if w := sink.inline[k]; w != blobRefLen {
						t.Errorf("value %q (%d bytes) reached the A task as %d inline bytes, want a %d-byte placeholder",
							k, n, w, blobRefLen)
					}
				}
			}
			ctrs := res.RuntimeCounters
			if ctrs["blob.values.sent"] == 0 || ctrs["blob.values.received"] != ctrs["blob.values.sent"] {
				t.Errorf("blob counters: sent=%d received=%d", ctrs["blob.values.sent"], ctrs["blob.values.received"])
			}
			if ctrs["blob.bytes.sent"] != ctrs["blob.bytes.received"] {
				t.Errorf("blob bytes: sent=%d received=%d", ctrs["blob.bytes.sent"], ctrs["blob.bytes.received"])
			}
		})
	}
}

// TestChunkThresholdIdentity reruns the streamed-value job with the chunk
// threshold halved: every value must still arrive byte-identical and the
// record counters must not move, while the values travel in more chunks.
// blob.values.* and shuffle.bytes.* may legitimately shift — a value at
// the old threshold crosses onto the blob path, and every extra chunk
// carries its own header.
func TestChunkThresholdIdentity(t *testing.T) {
	sizes := blobSizes()
	transportCases(t, func(t *testing.T, opts ...RunOption) {
		run := func(chunk int) map[string]int64 {
			sink := newBlobSink()
			job := blobJob(sizes, 2, 2, 2, sink)
			job.Slots = 2 // every task in the first wave: deterministic placement
			job.Conf.ChunkBytes = chunk
			res, err := Run(job, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k, n := range sizes {
				if got, want := sink.digests[k], valueDigest(k, n); got != want {
					t.Errorf("ChunkBytes %d: value %q digest %s, want %s", chunk, k, got, want)
				}
			}
			return res.RuntimeCounters
		}
		records := func(rc map[string]int64) map[string]int64 {
			out := map[string]int64{}
			for k, v := range rc {
				if strings.HasPrefix(k, "shuffle.records.") {
					out[k] = v
				}
			}
			return out
		}
		base, half := run(8<<10), run(4<<10)
		if b, h := records(base), records(half); !reflect.DeepEqual(b, h) {
			t.Errorf("shuffle.records.* moved with the chunk threshold: %v at 8 KiB, %v at 4 KiB", b, h)
		}
		if half["blob.chunks.sent"] <= base["blob.chunks.sent"] {
			t.Errorf("blob.chunks.sent = %d at 4 KiB, not above %d at 8 KiB",
				half["blob.chunks.sent"], base["blob.chunks.sent"])
		}
	})
}

// TestSendValueFaultToleranceReplay crashes a streamed-value job
// mid-shuffle and recovers it from checkpoints: every value — including
// ones whose chunks were committed before the crash and replayed on
// attempt 2 — must come out byte-identical, exactly once.
func TestSendValueFaultToleranceReplay(t *testing.T) {
	sizes := map[string]int64{}
	for i := 0; i < 12; i++ {
		sizes[fmt.Sprintf("v%02d", i)] = (8 << 10) * int64(i%3+2)
	}
	dir := t.TempDir()
	ft := func(job *Job) {
		job.Conf.FaultTolerance = true
		job.Conf.CheckpointDir = dir
		job.Conf.CheckpointRecords = 3
	}

	sink1 := newBlobSink()
	job1 := blobJob(sizes, 2, 2, 2, sink1)
	ft(job1)
	job1.Conf.InjectFailAfterCPRecords = 8
	if _, err := Run(job1); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("attempt 1: want ErrInjectedFailure, got %v", err)
	}

	sink2 := newBlobSink()
	job2 := blobJob(sizes, 2, 2, 2, sink2)
	ft(job2)
	res, err := Run(job2)
	if err != nil {
		t.Fatalf("recovery attempt: %v", err)
	}
	if res.RecordsReloaded == 0 {
		t.Fatal("recovery reloaded nothing — the crash left no checkpoint coverage")
	}
	for k, n := range sizes {
		if got, want := sink2.digests[k], valueDigest(k, n); got != want {
			t.Errorf("recovered value %q: digest %s, want %s", k, got, want)
		}
	}
}

// TestSendValueRankDeathRecovery kills a worker rank mid-shuffle — in
// the middle of streaming chunk frames — and restarts the job from
// checkpoints: no partial value may ever surface, and every recovered
// value must be byte-identical to the oracle.
func TestSendValueRankDeathRecovery(t *testing.T) {
	sizes := map[string]int64{}
	for i := 0; i < 16; i++ {
		sizes[fmt.Sprintf("p%02d", i)] = (8 << 10) * int64(i%3+2)
	}
	dir := t.TempDir()
	ft := func(job *Job) {
		job.Conf.FaultTolerance = true
		job.Conf.CheckpointDir = dir
		job.Conf.CheckpointRecords = 2
	}

	// Attempt 1: rank 1 dies after its 25th transport send — mid-stream,
	// with chunk frames both committed and in flight.
	sink1 := newBlobSink()
	job1 := blobJob(sizes, 2, 2, 2, sink1)
	ft(job1)
	job1.hooks.FaultPlan = fault.KillRank(1, 1, 25)
	if _, err := runWithDeadline(t, job1); !errors.Is(err, ErrRankDead) {
		t.Fatalf("attempt 1: want ErrRankDead, got %v", err)
	}
	// Whatever the A tasks saw before the crash must already be complete
	// values: a partial value surfacing is corruption even mid-crash.
	for k, d := range sink1.digests {
		if want := valueDigest(k, sizes[k]); d != want {
			t.Errorf("pre-crash value %q surfaced partial: digest %s, want %s", k, d, want)
		}
	}

	// Attempt 2: clean restart recovers committed chunks and re-runs the
	// rest.
	sink2 := newBlobSink()
	job2 := blobJob(sizes, 2, 2, 2, sink2)
	ft(job2)
	res, err := runWithDeadline(t, job2)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if res.RecordsReloaded == 0 {
		t.Error("recovery reloaded no checkpointed records")
	}
	for k, n := range sizes {
		if got, want := sink2.digests[k], valueDigest(k, n); got != want {
			t.Errorf("recovered value %q: digest %s, want %s", k, got, want)
		}
	}
}

// TestSendValueRejections pins the modes and configurations SendValue
// refuses instead of silently corrupting: Iteration/Streaming modes,
// combiners, negative lengths.
func TestSendValueRejections(t *testing.T) {
	run := func(mut func(*Job), send func(*Context) error) error {
		job := &Job{
			Name: "rej", Mode: MapReduce,
			NumO: 1, NumA: 1, Procs: 1,
			OTask: send,
			ATask: func(ctx *Context) error {
				for {
					if _, ok, err := ctx.NextGroup(); err != nil || !ok {
						return err
					}
				}
			},
		}
		if mut != nil {
			mut(job)
		}
		_, err := Run(job)
		return err
	}
	big := int64(64 << 10)
	sendBig := func(ctx *Context) error {
		return ctx.SendValue([]byte("k"), newPatternReader("k", big), big)
	}
	noopCombine := func(key []byte, values [][]byte) [][]byte { return values }
	if err := run(func(j *Job) { j.Conf.Combine = noopCombine }, sendBig); err == nil {
		t.Error("SendValue with Conf.Combine: want error")
	}
	if err := run(nil, func(ctx *Context) error {
		return ctx.SendValue([]byte("k"), bytes.NewReader(nil), -1)
	}); err == nil {
		t.Error("SendValue with negative length: want error")
	}
	iter := &Job{
		Name: "rej-iter", Mode: Iteration,
		NumO: 1, NumA: 1, Procs: 1, Rounds: 1,
		OTask: sendBig,
		ATask: func(ctx *Context) error {
			for {
				if _, ok, err := ctx.NextGroup(); err != nil || !ok {
					return err
				}
			}
		},
	}
	if _, err := Run(iter); err == nil {
		t.Error("SendValue in Iteration mode: want error")
	}
}

// TestConfigChunkValidation pins the typed validation of the new Config
// fields: callers can errors.As the failure and read which field broke.
func TestConfigChunkValidation(t *testing.T) {
	base := func() *Job {
		return &Job{
			Name: "cfg", Mode: MapReduce, NumO: 1, NumA: 1, Procs: 1,
			OTask: func(ctx *Context) error { return nil },
			ATask: func(ctx *Context) error {
				_, _, err := ctx.NextGroup()
				return err
			},
		}
	}
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"negative-chunk", func(c *Config) { c.ChunkBytes = -1 }, "ChunkBytes"},
		{"chunk-at-frame-cap", func(c *Config) { c.ChunkBytes = mpi.FrameCap }, "ChunkBytes"},
		{"ft-chunk-above-checkpoint-entry", func(c *Config) {
			c.FaultTolerance = true
			c.CheckpointDir = t.TempDir()
			c.ChunkBytes = 1 << 26
		}, "ChunkBytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := base()
			tc.mut(&job.Conf)
			_, err := Run(job)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
	// And a valid tuning passes.
	job := base()
	job.Conf.ChunkBytes = 1 << 16
	if _, err := Run(job); err != nil {
		t.Fatalf("valid chunk tuning rejected: %v", err)
	}
}
