// Package core implements the DataMPI runtime: the paper's bipartite
// communication model (§II), the minimalistic MPI extension of Tables I
// and II (§III), and the library design of §IV — the mpidrun launcher and
// scheduler with data-centric task placement, the O-side shuffle pipeline,
// Partition-List buffer management with a Partition Window, spill-over to
// disk, the four communication modes (Common, MapReduce, Iteration,
// Streaming), and the key-value library-level checkpoint for fault
// tolerance.
package core

import (
	"errors"
	"fmt"
	"time"

	"datampi/internal/kv"
	"datampi/internal/mpi"
)

// Mode selects the communication mode, the paper's "Diversified" feature
// (§II-A): each mode is a profile of configurations over the shared core.
type Mode int

// The four modes defined by the paper (§III-A).
const (
	// Common supports SPMD-style programming like traditional MPI programs.
	Common Mode = iota
	// MapReduce supports MPMD-style MapReduce applications; intermediate
	// data is sorted by key.
	MapReduce
	// Iteration supports iterative computation; communication is
	// bi-directional (O->A and A->O) across rounds.
	Iteration
	// Streaming processes real-time data streams; O and A tasks run
	// concurrently and data is not sorted.
	Streaming
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case Common:
		return "Common"
	case MapReduce:
		return "MapReduce"
	case Iteration:
		return "Iteration"
	case Streaming:
		return "Streaming"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config is the conf parameter of MPI_D_Init: the reserved keys of the
// specification plus the tunables of the library implementation. The zero
// value is usable; Normalize fills defaults.
type Config struct {
	// KeyCodec / ValueCodec are the paper's KEY_CLASS / VALUE_CLASS
	// reserved configuration keys. Defaults: kv.String / kv.String.
	KeyCodec   kv.Codec
	ValueCodec kv.Codec

	// Compare is MPI_D_COMPARE (Table II). Nil selects raw-byte order in
	// sorted modes, which kv sorts and merges through an 8-byte key-prefix
	// column instead of calling a comparator per record pair.
	Compare kv.Compare
	// GroupCompare, if set, controls how NextGroup coalesces keys into
	// reduce groups independently of the sort order — Hadoop's grouping
	// comparator, enabling the secondary-sort pattern (sort by a composite
	// key, group by its primary part). Nil groups by Compare equality.
	GroupCompare kv.Compare
	// Partition is MPI_D_PARTITION (Table II). Nil selects hash-modulo.
	Partition kv.Partition
	// Combine is MPI_D_COMBINE (Table II). Nil disables combining.
	Combine kv.Combine

	// Sorted overrides the mode's sorting default when non-nil
	// (MapReduce/Common/Iteration sort; Streaming does not).
	Sorted *bool

	// SPLBytes is the send-partition-list flush threshold per (task,
	// destination) buffer: when a partition buffer exceeds it, the buffer
	// is sealed and handed to the communication thread. Every sealed
	// buffer is one sorted run the A side merges, so it also sets the
	// A-side merge fan-in: about the partition's bytes / SPLBytes runs.
	// Default 256 KiB; an O task's SPL holds at most NumA × (SPLBytes +
	// 1 KiB) of records at once.
	SPLBytes int

	// MemCacheBytes bounds the intermediate data a process caches in
	// memory (the paper's Fig. 12 spill-over knob). Beyond it, received
	// runs are merged and spilled to disk. <= 0 means unlimited.
	MemCacheBytes int64

	// FlushInterval bounds buffering delay in Streaming mode: non-empty
	// partition buffers are flushed at least this often. Default 5 ms.
	// A raw Streaming job measures it on the wall clock. A StreamJob
	// source measures it in event time, along its watermark: its buffers
	// seal when the watermark crosses a multiple of FlushInterval or a
	// window deadline, so its framing depends on the events alone.
	FlushInterval time.Duration

	// FaultTolerance enables the key-value library-level checkpoint
	// (§IV-E). CheckpointDir must be set (stable across restarts).
	FaultTolerance bool
	CheckpointDir  string
	// CheckpointRecords is the checkpoint-round length: after this many
	// emitted records a task drains its partition buffers and commits a
	// chunk ("each task makes the checkpoint separately after a round of
	// data exchanging", Fig. 7). Default 4096.
	CheckpointRecords int64

	// DataCentric schedules every A task onto the process already holding
	// its partition (§IV-B). Default true; set DataCentricOff for the
	// ablation, which schedules A tasks round-robin and fetches partition
	// data remotely.
	DataCentricOff bool

	// OSidePipelineOff disables the O-side shuffle pipeline ablation
	// (§IV-C): sealed buffers are sent synchronously by the task instead
	// of overlapping with computation via the communication thread.
	OSidePipelineOff bool

	// InjectFailAfterCPRecords, when > 0, aborts the job once that many
	// records have been durably checkpointed — the controlled variant used
	// to reproduce Fig. 13(a), where the job is killed "when DataMPI has
	// persisted different sizes of checkpoints".
	InjectFailAfterCPRecords int64

	// ShmOff disables shared-memory transport selection everywhere
	// (ablation): same-host pairs fall back to loopback TCP, the
	// pre-shm behaviour, whether the rings were asked for in-process
	// (WithShmTransport) or are the proc-mode launcher's default. Job
	// counters are byte-identical either way — only the mpi.* wire
	// counters may differ.
	ShmOff bool

	// ChunkBytes is the large-value chunk threshold, governing both
	// layers of the BigMPI-style chunked data plane: a transport message
	// larger than it travels as sequenced continuation frames of at most
	// ChunkBytes each, and Context.SendValue streams a value larger than
	// it in ChunkBytes pieces through the blob store instead of
	// materializing it. Zero keeps the 4 MiB default. It must be
	// strictly below the transport's 256 MiB frame cap.
	ChunkBytes int

	// PartialRestart enables per-rank recovery in distributed runs: when a
	// worker process dies mid-shuffle, the master respawns only that rank,
	// survivors keep their merge state, and committed checkpoint chunks
	// are replayed to cover the lost rank's data. Requires FaultTolerance;
	// rejected in Iteration mode and with DataCentricOff. In Streaming mode
	// the respawned rank's A tasks restart with fresh window state and the
	// deterministic replay re-fires their windows (sinks dedup by window);
	// StreamJob sources seal frames by event time, so the replay re-frames
	// the lost rank's records identically and survivors can drop the
	// frames they already merged.
	// Without it (or when recovery is not possible) rank death stays
	// fatal, and the launcher's whole-attempt retry recovers the job.
	PartialRestart bool

	// IOTimeout bounds blocking transport operations: sends that cannot
	// make progress fail with a timeout instead of hanging, and the
	// mpidrun master re-checks its failure detector at this interval while
	// waiting for worker events. Defaults to 2s when the job runs under
	// injected faults; 0 (no deadline) otherwise.
	IOTimeout time.Duration

	// Extra carries user-defined configuration, as MPI_D_Init's conf
	// parameter allows for advanced users.
	Extra map[string]string
}

// defaultSPLBytes is Config.SPLBytes' default. A buffer sealed at it must
// still fit the frame pool (maxPooledFrame); a test guards that.
const defaultSPLBytes = 256 << 10

// ErrInjectedFailure is returned by Runtime.Run when the configured fault
// injection fires.
var ErrInjectedFailure = errors.New("core: injected failure")

// ConfigError reports an invalid Config field rejected by Normalize;
// callers can distinguish configuration mistakes from runtime failures
// with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid Config.%s: %s", e.Field, e.Reason)
}

// Normalize fills defaults in place and validates the configuration for
// the given mode.
func (c *Config) Normalize(mode Mode) error {
	if c.KeyCodec == nil {
		c.KeyCodec = kv.String
	}
	if c.ValueCodec == nil {
		c.ValueCodec = kv.String
	}
	if c.Partition == nil {
		c.Partition = kv.DefaultPartition
	}
	if c.SPLBytes <= 0 {
		c.SPLBytes = defaultSPLBytes
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * time.Millisecond
	}
	if c.Sorted == nil {
		s := mode != Streaming
		c.Sorted = &s
	}
	if c.CheckpointRecords <= 0 {
		c.CheckpointRecords = 4096
	}
	if c.ChunkBytes < 0 {
		return &ConfigError{Field: "ChunkBytes", Reason: fmt.Sprintf("%d is negative", c.ChunkBytes)}
	}
	if c.ChunkBytes >= mpi.FrameCap {
		return &ConfigError{Field: "ChunkBytes",
			Reason: fmt.Sprintf("chunk threshold %d must be strictly below the frame cap %d", c.ChunkBytes, mpi.FrameCap)}
	}
	if c.FaultTolerance && c.ChunkBytes > maxChunkPayload-frameHeaderLen-blobHdrLen {
		return &ConfigError{Field: "ChunkBytes",
			Reason: fmt.Sprintf("chunk threshold %d exceeds the checkpoint entry bound %d under FaultTolerance",
				c.ChunkBytes, maxChunkPayload-frameHeaderLen-blobHdrLen)}
	}
	if c.FaultTolerance && c.CheckpointDir == "" {
		return errors.New("core: FaultTolerance requires CheckpointDir")
	}
	if c.PartialRestart {
		if !c.FaultTolerance {
			return errors.New("core: PartialRestart requires FaultTolerance")
		}
		if mode == Iteration {
			return fmt.Errorf("core: PartialRestart is not supported in %s mode", mode)
		}
		if c.DataCentricOff {
			return errors.New("core: PartialRestart requires data-centric scheduling")
		}
	}
	return nil
}

// compare is Compare with nil resolved to raw-byte order, for the stages
// (combine, grouping) that need a comparator func. Sort and merge take
// Compare as is: kv reads nil as raw-byte order on its key-prefix path.
func (c *Config) compare() kv.Compare {
	if c.Compare == nil {
		return kv.DefaultCompare
	}
	return c.Compare
}

// sorted reports whether intermediate data is sorted under this config.
func (c *Config) sorted() bool { return c.Sorted != nil && *c.Sorted }

// chunkThreshold returns the effective large-value chunk size.
func (c *Config) chunkThreshold() int64 {
	if c.ChunkBytes > 0 {
		return int64(c.ChunkBytes)
	}
	return 4 << 20
}
