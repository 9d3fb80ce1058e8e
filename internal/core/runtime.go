package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/mpi"
	"datampi/internal/netsim"
)

// Runtime is one job's mpidrun instance: it spawns the DataMPI worker
// processes, connects to them with an intercommunicator, and schedules O
// and A tasks onto them — supporting all 4D features of the bipartite
// model (§IV-B): Dichotomic (two task queues), Dynamic (tasks launched as
// slots free up), Data-centric (A tasks placed on the process holding
// their partition; O tasks placed by input locality), and Diversified
// (the -M mode switch).
type Runtime struct {
	job  *Job
	rcfg runCfg
	id   int64

	world     *mpi.World
	masterIC  *mpi.Intercomm
	workerICs []*mpi.Intercomm
	procs     []*process

	aborted     chan struct{}
	abortCtx    context.Context
	abortCancel context.CancelFunc
	wg          sync.WaitGroup
	failOnce    sync.Once
	failMu      sync.Mutex
	failErr     error
	failRank    int // worker the failure was observed on; -1 otherwise
	// failed is stored true only after failErr is set, so err() can skip
	// failMu on the per-record path while nothing has failed. Nothing on
	// that path writes near it: the line stays shared in every core's cache.
	failed atomic.Bool

	// sent is the job's record total. Tasks count their sends in
	// Context.sent and runUser adds each task's count here once, so no
	// record writes a cache line shared across O tasks.
	sent          atomic.Int64
	cpDurable     atomic.Int64
	bytesShuffled atomic.Int64
	spilledBytes  atomic.Int64
	ctrs          *runtimeCounters

	assignMu sync.Mutex
	assignO  []int

	cpMu       sync.Mutex
	cpSeq      map[int]int
	skipByTask map[int]int64
	// cpFramesByTask[t][partition] counts the frames committed for task t
	// per destination partition (under cpMu): a partial-restart re-run
	// seeds its frame sequence from it so (partition, idx) labels line up
	// with what receivers already merged.
	cpFramesByTask map[int]map[int]int64

	// distMaster/distWorker mark a cross-process run (§IV-B mpidrun as a
	// real launcher): the master schedules over a caller-provided
	// distributed world and hosts no worker loops; a worker runtime hosts
	// exactly one process and reports its counters/trace on its bye.
	distMaster bool
	distWorker bool
	distCtrs   map[string]int64 // counters absorbed from worker byes

	res Result

	// injSent is InjectFailAfterRecords' global count, the one shared
	// write per record; the padding keeps it off failed's cache line.
	_       [64]byte
	injSent atomic.Int64
}

var runtimeIDs atomic.Int64

func newRuntime(job *Job) *Runtime {
	rt := &Runtime{
		job:            job,
		id:             runtimeIDs.Add(1),
		aborted:        make(chan struct{}),
		failRank:       -1,
		cpSeq:          map[int]int{},
		skipByTask:     map[int]int64{},
		cpFramesByTask: map[int]map[int]int64{},
		distCtrs:       map[string]int64{},
	}
	rt.abortCtx, rt.abortCancel = context.WithCancel(context.Background())
	return rt
}

// Result reports what a job run did.
type Result struct {
	// Elapsed is the total wall time of Run; ReloadTime and SetupTime are
	// the checkpoint-reload and process-launch portions (Fig. 13a's "Job
	// Reload Checkpoint" and "Job Restart" bars).
	Elapsed    time.Duration
	SetupTime  time.Duration
	ReloadTime time.Duration
	// RoundTimes has one entry per Iteration round (one entry total in
	// other modes); OPhaseTimes/APhaseTimes split each round at the point
	// every O task had completed (the paper's map/reduce phase split).
	RoundTimes  []time.Duration
	OPhaseTimes []time.Duration
	APhaseTimes []time.Duration

	// OTaskSent[t] / ATaskReceived[t] are cumulative per-task record
	// counters, useful for diagnosing partitioning skew.
	OTaskSent     []int64
	ATaskReceived []int64

	// Counters aggregates the user counters every task incremented with
	// Context.AddCounter (the Hadoop job-counters analogue).
	Counters map[string]int64

	// RuntimeCounters are the library's built-in counters: shuffle bytes
	// per process pair, records combined, spill traffic, checkpoint
	// volume, and the MPI transport's wire counters (frames, bytes, TCP
	// retransmits and dials). See runtimeCounters.snapshot for the names.
	// Unconsumed traffic still in flight at shutdown (e.g. final-round
	// Iteration feedback no O task will read) may be missing from the
	// receive-side counters.
	RuntimeCounters map[string]int64

	RecordsSent     int64
	RecordsReloaded int64
	BytesShuffled   int64
	SpilledBytes    int64

	// Task placement statistics (data-centric scheduling).
	LocalATasks, RemoteATasks   int
	LocalOTasks, NonLocalOTasks int
}

type runCfg struct {
	tcp     bool
	shm     bool
	link    *netsim.Link
	world   *mpi.World
	respawn func(rank int) (string, error)
}

// RunOption configures transport choices for a run.
type RunOption func(*runCfg)

// WithTCPTransport runs the MPI data plane over real TCP loopback sockets.
func WithTCPTransport() RunOption { return func(c *runCfg) { c.tcp = true } }

// WithShmTransport runs the data plane over the TCP transport with the
// same-host shared-memory ring transport enabled: an in-process world is
// all one host, so every rank pair's traffic rides rings instead of
// sockets. Config.ShmOff overrides it and keeps every pair on TCP.
func WithShmTransport() RunOption { return func(c *runCfg) { c.tcp = true; c.shm = true } }

// WithLink charges all MPI traffic to the given shaped network link.
func WithLink(l *netsim.Link) RunOption { return func(c *runCfg) { c.link = l } }

// WithRespawn provides a relauncher for dead worker ranks, enabling
// partial restart (Config.PartialRestart): when a worker process dies
// mid-O-phase the master calls respawn(rank), which must start a fresh OS
// process that re-joins the world at that rank and return its transport
// address. Only meaningful together with WithWorld.
func WithRespawn(respawn func(rank int) (addr string, err error)) RunOption {
	return func(c *runCfg) { c.respawn = respawn }
}

// WithWorld runs the master over a caller-provided distributed world
// (mpi.JoinWorld) instead of creating an in-process one: world rank
// Procs is this master, ranks 0..Procs-1 are worker OS processes that
// must each call RunWorker with the same job. Transport options
// (WithTCPTransport, WithLink) are ignored — the world is already wired.
func WithWorld(w *mpi.World) RunOption { return func(c *runCfg) { c.world = w } }

// Run executes a job to completion: the library analogue of
//
//	mpidrun -O n -A m -M mode -jar job
//
// Every failure is returned wrapped in a *RunError naming the phase (and,
// when known, the worker) it came from.
func Run(job *Job, opts ...RunOption) (*Result, error) {
	return RunContext(context.Background(), job, opts...)
}

// RunContext is Run bound to a context: cancelling ctx aborts the run —
// the master's event sweep wakes, blocked sends, merges and in-flight
// Recvs unblock — and RunContext returns, once the workers have quiesced,
// a *RunError wrapping ctx.Err().
func RunContext(ctx context.Context, job *Job, opts ...RunOption) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, &RunError{Phase: "validate", Rank: -1, Err: err}
	}
	rt := newRuntime(job)
	defer rt.abortCancel()
	for _, o := range opts {
		o(&rt.rcfg)
	}
	if ctx != nil {
		defer context.AfterFunc(ctx, func() { rt.fail(ctx.Err()) })()
	}
	start := time.Now()
	if err := rt.setup(); err != nil {
		return nil, rt.runError("setup", err)
	}
	tornDown := false
	defer func() {
		if !tornDown {
			rt.teardown()
		}
	}()
	rt.res.SetupTime = time.Since(start)
	if job.Progress != nil {
		job.Progress.SetTotals(job.NumO*job.Rounds, job.NumA*job.Rounds)
	}

	reloadStart := time.Now()
	plan, err := rt.reloadPlan()
	if err != nil {
		return nil, rt.runError("reload", err)
	}
	rd := newRound(rt, plan, reloadStart)
	if err := rt.pump(rd); err != nil {
		return nil, rt.runError(rd.phase.runPhase(), err)
	}
	rt.res.Elapsed = time.Since(start)
	rt.res.RecordsSent = rt.sent.Load()
	rt.res.BytesShuffled = rt.bytesShuffled.Load()
	rt.res.SpilledBytes = rt.spilledBytes.Load()
	// Snapshot the counters only once teardown has joined the process
	// goroutines and the world's close drain has let the async writers
	// count their last batches; earlier, mpi.bytes.sent can miss them.
	tornDown = true
	rt.teardown()
	rt.res.RuntimeCounters = rt.ctrs.snapshot(rt.world.Stats())
	// In a distributed run the shuffle happened inside the worker
	// processes; fold the counters their byes carried into the result.
	foldCounters(rt.res.RuntimeCounters, rt.distCtrs)
	res := rt.res
	return &res, nil
}

// setup builds the master's side of the run: over an in-process world
// whose worker ranks it hosts, or (WithWorld) over a distributed world
// whose workers are other OS processes running RunWorker. Both replay the
// same communicator sequence, so comm ids line up without negotiation.
func (rt *Runtime) setup() error {
	j := rt.job
	rt.ctrs = newRuntimeCounters(j.Procs)
	if j.Trace.Enabled() {
		rt.nameTraceRows()
	}
	switch rt.world = rt.rcfg.world; {
	case rt.world == nil:
		world, err := mpi.NewWorld(j.Procs+1, rt.worldOptions()...)
		if err != nil {
			return err
		}
		rt.world = world
	case rt.world.Size() != j.Procs+1:
		return fmt.Errorf("core: distributed world has %d ranks, want Procs+1 = %d",
			rt.world.Size(), j.Procs+1)
	case j.hooks.faulty():
		return errors.New("core: fault injection is in-process only; kill worker processes instead")
	default:
		rt.distMaster = true
	}
	workerRanks := seq(j.Procs)
	comms, err := rt.world.NewComm(workerRanks)
	var ics []*mpi.Intercomm
	if err == nil {
		ics, err = mpi.NewIntercomm(rt.world, []int{j.Procs}, workerRanks)
	}
	if err != nil {
		if !rt.distMaster {
			rt.world.Close()
		}
		return err
	}
	rt.masterIC, rt.workerICs = ics[j.Procs], ics[:j.Procs]
	if rt.distMaster {
		return nil
	}
	rt.procs = make([]*process, j.Procs)
	for i := range rt.procs {
		rt.procs[i] = newProcess(rt, i, comms[i])
	}
	rt.wg.Add(j.Procs)
	for _, p := range rt.procs {
		go func() { defer rt.wg.Done(); rt.workerLoop(p) }()
	}
	return nil
}

// worldOptions configures an in-process world from the run options.
func (rt *Runtime) worldOptions() []mpi.Option {
	j := rt.job
	wopts := []mpi.Option{mpi.WithEngine(Engine(&j.Conf))}
	if rt.rcfg.tcp {
		wopts = append(wopts, mpi.WithTCP())
	}
	if rt.rcfg.shm && !j.Conf.ShmOff {
		wopts = append(wopts, mpi.WithShm())
	}
	if rt.rcfg.link != nil {
		wopts = append(wopts, mpi.WithLink(rt.rcfg.link))
	}
	if inj := j.hooks.injector(); inj != nil {
		wopts = append(wopts, mpi.WithFaults(inj))
	}
	if d := j.Conf.IOTimeout; d > 0 {
		wopts = append(wopts, mpi.WithSendTimeout(d))
	}
	if tr := j.Trace; tr.Enabled() {
		// TCP retransmits surface as instants on the retrying sender's row.
		wopts = append(wopts, mpi.WithRetryHook(func(src, dst, attempt int) {
			tr.Rank(src).Instant(tidSend, "mpi.retry", "fault",
				map[string]any{"dst": dst, "attempt": attempt})
		}))
	}
	return wopts
}

// Engine maps the Config's progress-engine setting onto the mpi engine:
// the one translation from job settings to the transport, used by the
// in-process master and by the proc-mode launcher, which applies it to its
// own world and ships it to every worker world. A zero field keeps the
// engine's default.
func Engine(c *Config) mpi.Engine {
	return mpi.Engine{ChunkBytes: c.ChunkBytes}
}

// nameTraceRows labels the Chrome-trace process and thread rows: one
// process row per worker rank plus one for the master, matching the
// per-OS-process pid layout a distributed run merges into.
func (rt *Runtime) nameTraceRows() {
	j := rt.job
	tr := j.Trace
	tr.SetProcessName(j.Procs, "mpidrun (master)")
	for i := 0; i < j.Procs; i++ {
		tr.SetProcessName(i, fmt.Sprintf("worker %d", i))
		tr.SetThreadName(i, tidControl, "control")
		tr.SetThreadName(i, tidSend, "send")
		tr.SetThreadName(i, tidRecv, "recv")
		for w := 0; w < min(j.hooks.mergeWidth(), maxMergeRows); w++ {
			tr.SetThreadName(i, mergeTID(w), fmt.Sprintf("merge-%d", w))
		}
		tr.SetThreadName(i, tidCompact, "spill-compact")
		for w := 0; w < min(j.hooks.prepareWidth(), maxPrepareRows); w++ {
			tr.SetThreadName(i, prepTID(w), fmt.Sprintf("prepare-%d", w))
		}
	}
}

func fillInt(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func (rt *Runtime) teardown() {
	rt.world.Close()
	// Unblock anything still waiting (no-op if a failure already fired; in
	// the clean path everything has exited by now anyway).
	rt.fail(errors.New("core: runtime shut down"))
	rt.wg.Wait()
	for _, p := range rt.procs {
		p.quiesce()
	}
	if rt.job.SpillDisks != nil {
		for i := 0; i < rt.job.Procs; i++ {
			_ = rt.job.SpillDisks[i].RemoveAll(fmt.Sprintf("dmpi-spill/run%d", rt.id))
		}
	}
}

// fail records the first error and wakes every blocked waiter.
func (rt *Runtime) fail(err error) { rt.failAt(-1, err) }

// failAt is fail with the worker rank the failure was observed on
// attached (surfaced as RunError.Rank); -1 means master-side or unknown.
func (rt *Runtime) failAt(rank int, err error) {
	rt.failOnce.Do(func() {
		rt.failMu.Lock()
		rt.failErr = err
		rt.failRank = rank
		rt.failMu.Unlock()
		rt.failed.Store(true)
		close(rt.aborted)
		if rt.abortCancel != nil {
			rt.abortCancel()
		}
		for _, p := range rt.procs {
			p.mu.Lock()
			merges := make([]*mergeState, 0, len(p.merges))
			for _, ms := range p.merges {
				merges = append(merges, ms)
			}
			p.mu.Unlock()
			for _, ms := range merges {
				ms.wake()
			}
		}
	})
}

// err returns the recorded failure, if any. It is lock-free until a
// failure is recorded: countSend calls it for every record sent.
func (rt *Runtime) err() error {
	if !rt.failed.Load() {
		return nil
	}
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failErr
}

// runError wraps a failure into the phase-attributed *RunError callers
// match with errors.As. The recorded root cause (and its rank) wins over
// a secondary error, and an already-wrapped error passes through.
func (rt *Runtime) runError(phase string, err error) error {
	rank := -1
	rt.failMu.Lock()
	if rt.failErr != nil {
		err = rt.failErr
		rank = rt.failRank
	}
	rt.failMu.Unlock()
	var re *RunError
	if errors.As(err, &re) {
		return err
	}
	return &RunError{Phase: phase, Rank: rank, Err: err}
}

// recvMasterEvent waits for the next worker event without ever hanging on
// a failed cluster: the wait aborts as soon as any component records a
// failure. When Config.IOTimeout is set it wakes at that interval and
// sweeps the failure detector, returning a rankDead event for a silently
// dead worker and a tick otherwise; the round decides what either means.
func (rt *Runtime) recvMasterEvent() (eventMsg, error) {
	ctx := rt.abortCtx
	if d := rt.job.Conf.IOTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	b, _, err := rt.masterIC.RecvContext(ctx, mpi.AnySource, tagEvent)
	if err == nil {
		return decodeEvent(b)
	}
	if e := rt.err(); e != nil {
		return eventMsg{}, e
	}
	if !errors.Is(err, mpi.ErrTimeout) {
		return eventMsg{}, err
	}
	for p := 0; p < rt.job.Procs; p++ {
		if rt.world.RankDead(p) {
			return eventMsg{Type: evRankDead, Proc: p}, nil
		}
	}
	return eventMsg{Type: evTick}, nil
}

// countSend is the per-record gate of every send: it surfaces a recorded
// failure and enforces InjectFailAfterRecords, which needs a global count
// and so keeps one shared counter of its own. The job's record total is
// not kept here (see Runtime.sent).
func (rt *Runtime) countSend() error {
	if err := rt.err(); err != nil {
		return err
	}
	if fa := rt.job.hooks.InjectFailAfterRecords; fa > 0 && rt.injSent.Add(1) > fa {
		rt.fail(ErrInjectedFailure)
		return ErrInjectedFailure
	}
	return nil
}

// ownerProc is the Partition Window: partition p's intermediate data
// accumulates on process p mod Procs, and the data-centric scheduler sends
// A task p there.
func (rt *Runtime) ownerProc(partition int) int { return partition % rt.job.Procs }

// procOfOTask reports where an O task is bound (for reverse routing).
func (rt *Runtime) procOfOTask(task int) int {
	rt.assignMu.Lock()
	defer rt.assignMu.Unlock()
	return max(rt.assignO[task], 0)
}

// cpStartSeq is the chunk number a task's next checkpoint should start
// at (so respawned attempts never overwrite surviving chunks). Guarded
// by cpMu: workers apply the master-assigned seed concurrently with the
// scheduler reading it for the next assignment.
func (rt *Runtime) cpStartSeq(task int) int {
	rt.cpMu.Lock()
	defer rt.cpMu.Unlock()
	return rt.cpSeq[task]
}

// setCPSeq applies the checkpoint chunk seed carried on a task
// assignment (a no-op rewrite of the same value for in-process runs).
func (rt *Runtime) setCPSeq(task, seq int) {
	rt.cpMu.Lock()
	defer rt.cpMu.Unlock()
	rt.cpSeq[task] = seq
}

// mergeCounters folds one task's counter deltas into the job result.
func (rt *Runtime) mergeCounters(c map[string]int64) {
	if len(c) > 0 && rt.res.Counters == nil {
		rt.res.Counters = map[string]int64{}
	}
	for k, v := range c {
		rt.res.Counters[k] += v
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
