// Package datampi is a Go implementation of DataMPI, the communication
// library of "DataMPI: Extending MPI to Hadoop-like Big Data Computing"
// (Lu, Liang, Wang, Zha, Xu — IPDPS 2014).
//
// DataMPI extends MPI to the key-value communication patterns of Big Data
// systems through a 4D bipartite model: all data moves from tasks of an O
// (Operation) communicator to tasks of an A (Aggregation) communicator.
// The API is the paper's minimalistic extension (Tables I and II):
//
//	MPI_D_Init / MPI_D_Finalize      -> Run(job) (the mpidrun launcher)
//	MPI_D_Comm_rank / MPI_D_Comm_size -> Context.Rank / Context.CommSize
//	MPI_D_Send / MPI_D_Recv           -> Context.Send / Context.Recv
//	MPI_D_Compare/Partition/Combine   -> Config.Compare/Partition/Combine
//
// A minimal word-count:
//
//	job := &datampi.Job{
//	    Mode: datampi.MapReduce,
//	    Conf: datampi.Config{ValueCodec: datampi.Int64Codec},
//	    NumO: 4, NumA: 2,
//	    OTask: func(ctx *datampi.Context) error {
//	        for _, w := range wordsFor(ctx.Rank()) {
//	            if err := ctx.Send(w, int64(1)); err != nil {
//	                return err
//	            }
//	        }
//	        return nil
//	    },
//	    ATask: func(ctx *datampi.Context) error {
//	        for {
//	            g, ok, err := ctx.NextGroup()
//	            if err != nil || !ok {
//	                return err
//	            }
//	            emit(g.Key, len(g.Values))
//	        }
//	    },
//	}
//	res, err := datampi.Run(job)
//
// The runtime implements the paper's §IV design: data-centric task
// scheduling (A tasks run where their partition data already is), the
// O-side shuffle and A-side merge pipelines, Partition-List buffer
// management with a Partition Window, spill-over past a memory-cache
// threshold with background compaction of spilled runs, four modes
// (Common, MapReduce, Iteration, Streaming), and a key-value
// library-level checkpoint for fault tolerance.
//
// # Options and cancellation
//
// Every job setting lives on Config, the conf parameter of MPI_D_Init:
// codecs, the Table II functions, buffer sizes, pipeline widths (§IV-C),
// fault tolerance, and the data plane's progress-engine knobs alike.
// RunOptions say only how a run is hosted and observed: WithTransport
// selects the MPI data plane, WithProcessLaunch spawns real worker OS
// processes and runs the data plane across them (pair it with
// RunWorkerIfSpawned at the top of main), WithTrace streams a Chrome
// trace_event profile of the run, and WithCounters retains the built-in
// runtime counters on Result.RuntimeCounters. RunContext is Run bound to
// a context.Context: cancelling the context aborts the master sweep and
// every in-flight send, merge and receive, and the error unwraps to
// ctx.Err().
//
// # Errors
//
// Every failure from Run and RunContext wraps a *RunError locating the
// failure — the phase it surfaced in and, when it originated on a worker
// process, that worker's rank. The root cause stays reachable through
// errors.Is/As: errors.Is(err, ErrRankDead) detects a died worker,
// errors.Is(err, ErrTimeout) a transport deadline, errors.Is(err,
// context.Canceled) a cancelled RunContext, and task errors are reachable
// with errors.Is/As against the task's own error values.
package datampi

import (
	"context"
	"errors"
	"io"
	"time"

	"datampi/internal/core"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
	"datampi/internal/launch"
	"datampi/internal/trace"
)

// Modes of the bipartite model (the -M flag of mpidrun).
const (
	Common    = core.Common
	MapReduce = core.MapReduce
	Iteration = core.Iteration
	Streaming = core.Streaming
)

// Re-exported core types; see the core package for full documentation.
type (
	// Mode selects one of the four communication modes.
	Mode = core.Mode
	// Config is the conf parameter of MPI_D_Init.
	Config = core.Config
	// Job describes a bipartite application for the mpidrun launcher.
	Job = core.Job
	// Context is a task's handle on the library (Table I functions).
	Context = core.Context
	// TaskFunc is the body of an O or A task.
	TaskFunc = core.TaskFunc
	// Result reports what a run did.
	Result = core.Result
	// CommID names COMM_BIPARTITE_O or COMM_BIPARTITE_A.
	CommID = core.CommID
	// Record is a serialized key-value pair.
	Record = kv.Record
	// Group is one key with all values emitted for it.
	Group = kv.Group
	// RunError is the typed error every run-level failure wraps; see the
	// package documentation's Errors section.
	RunError = core.RunError
)

// Re-exported streaming types (the resident Streaming-mode service); see
// the core package for full documentation.
type (
	// StreamJob describes a resident streaming service: continuous O-side
	// sources feeding credit-flow-controlled partitions into A-side
	// event-time window machines.
	StreamJob = core.StreamJob
	// SourceContext is a source adapter's handle: Emit, Watermark, and the
	// stop/drain signals.
	SourceContext = core.SourceContext
	// StreamHandle controls a running stream: Stop, Wait, and the
	// drain-and-resume reconfiguration fence.
	StreamHandle = core.StreamHandle
	// WindowSpec configures event-time windowing: size, slide, and allowed
	// lateness.
	WindowSpec = core.WindowSpec
	// FiredWindow is one emitted window: its bounds and per-key groups.
	FiredWindow = core.FiredWindow
	// WindowGroup is one key's values within a fired window.
	WindowGroup = core.WindowGroup
)

// The two built-in communicators.
const (
	CommO = core.CommO
	CommA = core.CommA
)

// Sentinel causes reachable through errors.Is on any run-level failure.
var (
	// ErrInjectedFailure is returned when configured fault injection fires.
	ErrInjectedFailure = core.ErrInjectedFailure
	// ErrRankDead marks a worker process that died mid-run; with
	// Config.FaultTolerance enabled, a rerun recovers from checkpoints.
	ErrRankDead = core.ErrRankDead
	// ErrTimeout marks a transport operation that exceeded Config.IOTimeout.
	ErrTimeout = core.ErrTimeout
)

// Built-in codecs for Config.KeyCodec / Config.ValueCodec (the KEY_CLASS /
// VALUE_CLASS reserved configuration values).
var (
	StringCodec       = kv.String
	BytesCodec        = kv.Bytes
	Int64Codec        = kv.Int64
	Float64Codec      = kv.Float64
	Float64SliceCodec = kv.Float64Slice
	NullCodec         = kv.Null
)

// RunOption configures how a run is hosted and observed: transport,
// process launch, trace and counters. Job settings live on Config. Later
// options win over earlier ones.
type RunOption func(*runConfig)

// runConfig collects the option state RunContext applies around the core
// runtime.
type runConfig struct {
	transport  TransportKind
	proc       bool
	procOutput io.Writer
	traceOut   io.Writer
	counters   bool
}

// coreTransport returns the core option selecting the in-process
// transport (none for the default in-memory channels).
func (rc *runConfig) coreTransport() []core.RunOption {
	switch rc.transport {
	case TransportTCP:
		return []core.RunOption{core.WithTCPTransport()}
	case TransportShm:
		return []core.RunOption{core.WithShmTransport()}
	}
	return nil
}

// TransportKind selects the MPI data plane of a run.
type TransportKind int

const (
	// TransportMem moves frames over in-memory channels — the default.
	TransportMem TransportKind = iota
	// TransportTCP moves frames over real TCP loopback sockets.
	TransportTCP
	// TransportShm is TransportTCP with the same-host shared-memory ring
	// transport enabled: an in-process world is all one host, so every
	// rank pair's traffic rides lock-free shared-memory rings instead of
	// sockets. Under WithProcessLaunch the rings are on by default
	// (same-host worker pairs are selected automatically). Config.ShmOff
	// forces all pairs onto TCP in both cases.
	TransportShm
)

// TransportConfig selects the MPI data plane of a run (WithTransport).
// The progress engine under it — batching, drain bound, chunking, frame
// cap — is tuned on Config.
type TransportConfig struct {
	// Kind selects the transport; the zero value is TransportMem.
	Kind TransportKind
}

// WithTransport selects the MPI data plane. When given more than once,
// the last call wins (a zero Kind resets the run to TransportMem).
func WithTransport(tc TransportConfig) RunOption {
	return func(c *runConfig) { c.transport = tc.Kind }
}

// WithProcessLaunch makes Run a true launcher (§IV-B): it spawns
// Job.Procs worker OS processes (re-executions of this binary), completes
// a TCP rendezvous with them, and runs the job's data plane across those
// processes instead of in-process goroutines. The calling process acts as
// the master only: it schedules tasks, streams back exit status and
// counters, and merges every worker's trace spans into WithTrace's output
// with one trace pid per process.
//
// The binary must route spawned copies of itself into the worker loop
// before doing anything else — call RunWorkerIfSpawned at the top of
// main. Worker stdout/stderr is relayed to w (each line prefixed with
// "[w<rank>] "); a nil w relays to os.Stderr.
//
// Config.IOTimeout defaults to 10s under process launch so that a worker
// process dying is detected rather than hung on; the failure then
// reaches the caller as ErrRankDead. To exercise that path, kill a
// worker process. WithProcessLaunch overrides WithTransport.
func WithProcessLaunch(w io.Writer) RunOption {
	return func(c *runConfig) {
		c.proc = true
		c.procOutput = w
	}
}

// WithTrace streams a Chrome trace_event JSON profile of the run to w
// (open it at chrome://tracing or https://ui.perfetto.dev): task spans,
// shuffle xmit/recv/merge spans per pipeline worker row, spill and
// checkpoint I/O. The profile is written when the run finishes — also on
// failure, covering everything up to the abort. Ignored if Job.Trace is
// already set (the caller owns the tracer then).
func WithTrace(w io.Writer) RunOption { return func(c *runConfig) { c.traceOut = w } }

// WithCounters retains the library's built-in counters on
// Result.RuntimeCounters: shuffle bytes/records per process pair, combine
// and spill traffic, checkpoint volume, and the MPI transport's wire
// stats. Without this option the map is nil (the counters are cheap
// atomics either way; the option only controls reporting).
func WithCounters() RunOption { return func(c *runConfig) { c.counters = true } }

// Run launches a job, as mpidrun does:
//
//	mpidrun -O n -A m -M mode -jar jarname classname params
//
// It is RunContext with a background context.
func Run(job *Job, opts ...RunOption) (*Result, error) {
	return RunContext(context.Background(), job, opts...)
}

// RunContext launches a job under a context: when ctx is cancelled, the
// run aborts — the master's scheduling sweep and every in-flight send,
// merge and Recv unblock — and RunContext returns, once the worker
// processes have quiesced, a *RunError wrapping ctx.Err().
func RunContext(ctx context.Context, job *Job, opts ...RunOption) (*Result, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	var tr *trace.Tracer
	if rc.traceOut != nil && job.Trace == nil {
		tr = trace.New()
		job.Trace = tr
	}
	copts := rc.coreTransport()
	var cluster *launch.Cluster
	if rc.proc {
		if job.Conf.IOTimeout <= 0 {
			job.Conf.IOTimeout = 10 * time.Second
		}
		cl, cerr := launch.StartCluster(launch.ClusterConfig{
			Procs:     job.Procs,
			IOTimeout: job.Conf.IOTimeout,
			Output:    rc.procOutput,
			Engine:    core.Engine(&job.Conf),
			ShmOff:    job.Conf.ShmOff,
		})
		if cerr != nil {
			return nil, &RunError{Phase: "launch", Rank: -1, Err: cerr}
		}
		cluster = cl
		copts = []core.RunOption{core.WithWorld(cl.World())}
	}
	res, err := core.RunContext(ctx, job, copts...)
	if cluster != nil {
		cluster.Shutdown()
	}
	if tr != nil {
		job.Trace = nil
		if werr := tr.WriteJSON(rc.traceOut); werr != nil && err == nil {
			err = &RunError{Phase: "trace", Rank: -1, Err: werr}
		}
	}
	if err != nil {
		return nil, err
	}
	if !rc.counters {
		res.RuntimeCounters = nil
	}
	return res, nil
}

// RunWorkerIfSpawned is the worker-process half of WithProcessLaunch.
// Call it first thing in main: when this process is a spawned worker copy
// (the launcher marks its children through the environment), it joins the
// launcher's world, runs makeJob()'s share of the tasks until the master
// shuts the run down, and returns (true, error); the caller should exit
// then — with a non-zero status if the error is non-nil — instead of
// continuing into its own Run call. In the launcher process (and in plain
// in-process runs) it returns (false, nil) immediately.
//
// makeJob must build the same Job the launcher passes to Run — same
// geometry, mode, codecs, and task functions — because every process
// derives the communicator layout from it independently.
func RunWorkerIfSpawned(makeJob func() *Job) (bool, error) {
	if !launch.IsSpawnedWorker() {
		return false, nil
	}
	w, err := launch.JoinAsWorker()
	if err != nil {
		return true, err
	}
	job := makeJob()
	if w.IOTimeout > 0 {
		job.Conf.IOTimeout = w.IOTimeout
	}
	if job.Trace == nil {
		// Workers always trace; the buffer rides back to the launcher on
		// the final handshake and merges into its WithTrace output.
		job.Trace = trace.New()
	}
	return true, core.RunWorker(job, w.World, w.Rank, w.Attempt)
}

// RunStream starts a StreamJob as a resident in-process service and
// returns a handle to it: the job's sources run until they finish or the
// handle is stopped, the A side fires event-time windows as watermarks
// pass them, and Wait blocks for the final Result (whose RuntimeCounters
// include the stream.* flow-control and windowing counters). The
// transport option applies as in Run; WithProcessLaunch does
// not — proc-mode streaming goes through the launch package's JobSpec
// (app "streamagg") or mpidrun, where the service survives worker
// SIGKILLs via partial restart.
func RunStream(sj *StreamJob, opts ...RunOption) (*StreamHandle, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.proc {
		return nil, &RunError{Phase: "launch", Rank: -1,
			Err: errors.New("WithProcessLaunch is not supported by RunStream; use the launch package's streaming JobSpec")}
	}
	return core.RunStream(sj, rc.coreTransport()...)
}

// SplitsForTask is the utility function of §IV-B: it returns the HDFS
// splits an O task should load, derived from the task's rank and the size
// of COMM_BIPARTITE_O — the same mapping mpidrun uses for data-local O
// placement.
func SplitsForTask(ctx *Context, splits []hdfs.Split) []hdfs.Split {
	return hdfs.SplitsForRank(splits, ctx.Rank(), ctx.CommSize(CommO))
}
