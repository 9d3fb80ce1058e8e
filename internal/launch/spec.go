package launch

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"datampi/internal/core"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// JobSpec is the serializable description of a built-in mpidrun
// application run. The launcher ships it to every worker in
// DATAMPI_SPEC; each process (launcher and workers alike) builds an
// identical core.Job from it, which is what makes the distributed
// communicator sequences line up. Inputs are generated deterministically
// from (Seed, task) inside the O tasks, so no shared filesystem input is
// needed; A tasks write their part files into the shared OutDir.
type JobSpec struct {
	App   string `json:"app"` // "wordcount" | "terasort" | "bigvalue" | "streamagg"
	NumO  int    `json:"numO"`
	NumA  int    `json:"numA"`
	Procs int    `json:"procs"`
	Slots int    `json:"slots,omitempty"`

	// Lines is wordcount's per-O-task input size; Records is terasort's
	// total record count, bigvalue's total streamed-value count and
	// streamagg's total event count (each split across O tasks);
	// ValueBytes is bigvalue's per-value size.
	Lines      int   `json:"lines,omitempty"`
	Records    int   `json:"records,omitempty"`
	ValueBytes int   `json:"valueBytes,omitempty"`
	Seed       int64 `json:"seed,omitempty"`

	// WindowMs is streamagg's tumbling event-time window size.
	WindowMs int `json:"windowMs,omitempty"`

	// OutDir receives the A tasks' part-%05d files (a real OS directory,
	// shared by all processes on this host).
	OutDir string `json:"outDir"`

	FT                bool   `json:"ft,omitempty"`
	CheckpointDir     string `json:"checkpointDir,omitempty"`
	CheckpointRecords int64  `json:"checkpointRecords,omitempty"`

	SPLBytes    int   `json:"splBytes,omitempty"`
	IOTimeoutMs int64 `json:"ioTimeoutMs,omitempty"`

	// ShmOff keeps every rank pair on TCP across the whole fleet (master
	// world + every worker world): the launcher creates no segment
	// directory and no rank advertises a shm host identity.
	ShmOff bool `json:"shmOff,omitempty"`

	// ChunkBytes tunes the large-value data plane fleet-wide
	// (core.Config.ChunkBytes, shipped to every worker world through the
	// spawn environment).
	ChunkBytes int `json:"chunkBytes,omitempty"`

	// PartialRestart recovers a dead worker by respawning just that rank
	// (core.Config.PartialRestart + core.WithRespawn) instead of
	// relaunching the whole attempt.
	PartialRestart bool `json:"partialRestart,omitempty"`

	// Chaos failpoint: on attempt 0, worker process KillRank SIGKILLs
	// itself as soon as KillAfterChunks complete checkpoint chunks are
	// visible in CheckpointDir — mid-shuffle, but with recoverable state
	// guaranteed durable. (Gating on emitted records is useless here:
	// emission outruns the transmit pipeline by orders of magnitude, so a
	// record-count trigger fires before anything is checkpointed.)
	KillRank        int `json:"killRank,omitempty"`
	KillAfterChunks int `json:"killAfterChunks,omitempty"`

	// FailCPCommit is a sharper chaos failpoint: on attempt 0, worker
	// KillRank SIGKILLs itself inside its FailCPCommit-th checkpoint
	// commit — after the chunk's tmp file is fully written and fsynced,
	// before the atomic rename publishes it. Recovery must treat the torn
	// commit as if it never happened.
	FailCPCommit int `json:"failCPCommit,omitempty"`
}

// Normalize fills defaults and validates the spec.
func (s *JobSpec) Normalize() error {
	switch s.App {
	case "wordcount", "terasort", "bigvalue", "streamagg":
	default:
		return fmt.Errorf("launch: unsupported app %q (process launch supports wordcount, terasort, bigvalue and streamagg)", s.App)
	}
	if s.NumO <= 0 || s.NumA <= 0 || s.Procs <= 0 {
		return fmt.Errorf("launch: need NumO/NumA/Procs > 0, got %d/%d/%d", s.NumO, s.NumA, s.Procs)
	}
	if s.Slots <= 0 {
		s.Slots = 2
	}
	if s.App == "streamagg" {
		if s.NumA > s.Procs*s.Slots {
			return fmt.Errorf("launch: streamagg (Streaming mode) needs NumA (%d) <= Procs*Slots (%d)",
				s.NumA, s.Procs*s.Slots)
		}
		if s.WindowMs <= 0 {
			s.WindowMs = 50
		}
		if s.Records <= 0 {
			s.Records = 4000
		}
	}
	if s.Lines <= 0 {
		s.Lines = 200
	}
	if s.Records <= 0 {
		if s.App == "bigvalue" {
			s.Records = 24 // bigvalue's Records is a streamed-value count
		} else {
			s.Records = 20000
		}
	}
	if s.App == "bigvalue" {
		if s.ValueBytes <= 0 {
			s.ValueBytes = 256 << 10
		}
		if s.ChunkBytes <= 0 {
			s.ChunkBytes = 32 << 10 // force real chunking at test scale
		}
	}
	if s.OutDir == "" {
		return fmt.Errorf("launch: OutDir must be set")
	}
	if s.FT && s.CheckpointDir == "" {
		return fmt.Errorf("launch: FT requires CheckpointDir")
	}
	if s.IOTimeoutMs <= 0 {
		s.IOTimeoutMs = 2000
	}
	if s.KillRank >= s.Procs {
		return fmt.Errorf("launch: KillRank %d out of range", s.KillRank)
	}
	if s.KillAfterChunks > 0 && !s.FT {
		return fmt.Errorf("launch: KillAfterChunks requires FT (the trigger watches CheckpointDir)")
	}
	if s.FailCPCommit > 0 && !s.FT {
		return fmt.Errorf("launch: FailCPCommit requires FT (the trigger is the checkpoint committer)")
	}
	if s.PartialRestart && !s.FT {
		return fmt.Errorf("launch: PartialRestart requires FT")
	}
	return nil
}

// IOTimeout is the spec's deadline as a duration.
func (s *JobSpec) IOTimeout() time.Duration {
	return time.Duration(s.IOTimeoutMs) * time.Millisecond
}

// BuildJob constructs the core.Job a process runs for this spec.
// workerRank is the hosting worker's world rank, or -1 on the launcher
// (and in in-process oracle runs, where one process hosts every rank).
// The chaos failpoint is armed only in the worker it names, on attempt 0.
func (s *JobSpec) BuildJob(workerRank, attempt int, tr *trace.Tracer) *core.Job {
	if s.KillAfterChunks > 0 && workerRank == s.KillRank && attempt == 0 {
		go watchKill(s.CheckpointDir, s.KillAfterChunks)
	}
	job := &core.Job{
		Name: s.App,
		Mode: core.MapReduce,
		Conf: core.Config{
			KeyCodec:          kv.Bytes,
			ValueCodec:        kv.Bytes,
			SPLBytes:          s.SPLBytes,
			FaultTolerance:    s.FT,
			CheckpointDir:     s.CheckpointDir,
			CheckpointRecords: s.CheckpointRecords,
			PartialRestart:    s.PartialRestart,
			ShmOff:            s.ShmOff,
			ChunkBytes:        s.ChunkBytes,
			IOTimeout:         s.IOTimeout(),
		},
		NumO: s.NumO, NumA: s.NumA, Procs: s.Procs, Slots: s.Slots,
		Trace: tr,
	}
	switch s.App {
	case "wordcount":
		job.OTask = s.wordcountO()
		job.ATask = s.wordcountA()
	case "terasort":
		job.Conf.Partition = teraPartition
		job.OTask = s.terasortO()
		job.ATask = s.terasortA()
	case "bigvalue":
		job.OTask = s.bigvalueO()
		job.ATask = s.bigvalueA()
	case "streamagg":
		// The streaming service is expressed as a StreamJob and lowered to
		// the plain Job every process runs; the shared Conf built above
		// (fault tolerance, partial restart, transport knobs) carries over.
		sj := &core.StreamJob{
			Name:   s.App,
			Conf:   job.Conf,
			NumO:   s.NumO,
			NumA:   s.NumA,
			Procs:  s.Procs,
			Slots:  s.Slots,
			Window: core.WindowSpec{Size: time.Duration(s.WindowMs) * time.Millisecond},
			Source: s.streamaggSource(),
			Emit:   s.streamaggEmit(),
			Trace:  tr,
		}
		lowered, err := sj.Job()
		if err != nil {
			// Normalize validated every input Job checks; reaching here is a
			// programming error, not a configuration one.
			panic(fmt.Sprintf("launch: streamagg spec failed to lower: %v", err))
		}
		job = lowered
	}
	if s.FailCPCommit > 0 && workerRank == s.KillRank && attempt == 0 {
		// Die mid-commit: the chunk's tmp file is durable but unpublished.
		var commits atomic.Int64
		target := int64(s.FailCPCommit)
		core.SetHooks(job, core.Hooks{CheckpointCommitHook: func(task, seq int) error {
			if commits.Add(1) == target {
				sigkillSelf()
			}
			return nil
		}})
	}
	return job
}

// watchKill polls the checkpoint directory and SIGKILLs this process once
// enough complete chunks are durable — the shuffle is still in flight
// (tens of checkpoint rounds remain), but recovery has something to load.
func watchKill(dir string, chunks int) {
	for {
		n := 0
		if ents, err := os.ReadDir(dir); err == nil {
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".done") {
					n++
				}
			}
		}
		if n >= chunks {
			sigkillSelf()
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// wordcount

// wcVocab is the word pool; a small vocabulary forces real aggregation.
var wcVocab = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"moon", "sun", "data", "mpi", "shuffle", "merge", "spill", "trace",
}

func (s *JobSpec) wordcountO() core.TaskFunc {
	lines, seed := s.Lines, s.Seed
	return func(ctx *core.Context) error {
		rng := rand.New(rand.NewSource(seed ^ int64(ctx.Rank())<<20))
		one := make([]byte, 8)
		binary.BigEndian.PutUint64(one, 1)
		for l := 0; l < lines; l++ {
			for w, n := 0, 3+rng.Intn(8); w < n; w++ {
				word := wcVocab[rng.Intn(len(wcVocab))]
				if err := ctx.SendRecord(kv.Record{Key: []byte(word), Value: one}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func (s *JobSpec) wordcountA() core.TaskFunc {
	outDir := s.OutDir
	return func(ctx *core.Context) error {
		f, err := os.Create(PartPath(outDir, ctx.Rank()))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for {
			g, ok, err := ctx.NextGroup()
			if err != nil {
				f.Close()
				return err
			}
			if !ok {
				break
			}
			var sum uint64
			for _, v := range g.Values {
				sum += binary.BigEndian.Uint64(v)
			}
			fmt.Fprintf(w, "%s\t%d\n", g.Key, sum)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// ---------------------------------------------------------------------------
// terasort

const teraKeyLen, teraValLen = 10, 12

// teraPartition is the TeraSort range partitioner: the first two key
// bytes index an even split of the 16-bit key-prefix space, so sorted
// partitions concatenate into a totally ordered output.
func teraPartition(key, _ []byte, numA int) int {
	p := int(binary.BigEndian.Uint16(key)) * numA >> 16
	if p >= numA {
		p = numA - 1
	}
	return p
}

// taskRecords splits Records across NumO tasks deterministically.
func (s *JobSpec) taskRecords(task int) int {
	n := s.Records / s.NumO
	if task < s.Records%s.NumO {
		n++
	}
	return n
}

func (s *JobSpec) terasortO() core.TaskFunc {
	spec := *s
	return func(ctx *core.Context) error {
		rng := rand.New(rand.NewSource(spec.Seed ^ int64(ctx.Rank())<<20))
		key := make([]byte, teraKeyLen)
		val := make([]byte, teraValLen)
		for i, n := 0, spec.taskRecords(ctx.Rank()); i < n; i++ {
			rng.Read(key)
			rng.Read(val)
			if err := ctx.SendRecord(kv.Record{Key: key, Value: val}); err != nil {
				return err
			}
		}
		return nil
	}
}

func (s *JobSpec) terasortA() core.TaskFunc {
	outDir := s.OutDir
	return func(ctx *core.Context) error {
		f, err := os.Create(PartPath(outDir, ctx.Rank()))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for {
			g, ok, err := ctx.NextGroup()
			if err != nil {
				f.Close()
				return err
			}
			if !ok {
				break
			}
			// Keys arrive sorted; duplicate keys' values are grouped. Emit
			// one line per record so the output is a stable total order.
			for _, v := range g.Values {
				fmt.Fprintf(w, "%x\t%x\n", g.Key, v)
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// PartPath is where A task `task` writes its output part file under a
// spec's OutDir.
func PartPath(dir string, task int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%05d", task))
}

// ---------------------------------------------------------------------------
// spec wire form

func encodeSpec(s *JobSpec) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func decodeSpec(v string) (*JobSpec, error) {
	if v == "" {
		return nil, fmt.Errorf("launch: %s not set in worker environment", EnvSpec)
	}
	var s JobSpec
	if err := json.Unmarshal([]byte(v), &s); err != nil {
		return nil, fmt.Errorf("launch: bad %s: %w", EnvSpec, err)
	}
	return &s, nil
}
