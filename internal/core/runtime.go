package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/fault"
	"datampi/internal/hdfs"
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
	inj         *fault.Injector
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
	assignA  []int
	prefProc []int

	cpMu       sync.Mutex
	cpSeq      map[int]int
	skipByTask map[int]int64
	// cpFramesByTask[t][partition] counts the frames committed for task t
	// per destination partition (under cpMu): a partial-restart re-run
	// seeds its frame sequence from it so (partition, idx) labels line up
	// with what receivers already merged.
	cpFramesByTask map[int]map[int]int64

	// Partial restart (master event loop only; no locking needed).
	// recoveryArmed is true exactly while a worker death is survivable:
	// during the O phase of a round, outside recovery processing.
	recoveryArmed bool
	respawnsUsed  int
	reloadProc    map[string]int // chunk path → proc it was re-injected on

	// deferredReload holds per-proc chunk assignments whose re-injection
	// must wait for the first round's A dispatch: in Streaming mode reloaded
	// frames flow against the credit window, so their consumers have to be
	// running first. pendingReloads counts reloadDone events still owed;
	// endO is held back until they all arrive (master event loop only).
	deferredReload [][]string
	pendingReloads int

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
	if job.Mode == Streaming {
		if job.NumA > job.Procs*job.Slots {
			return nil, &RunError{Phase: "validate", Rank: -1,
				Err: fmt.Errorf("core: Streaming needs NumA (%d) <= Procs*Slots (%d)",
					job.NumA, job.Procs*job.Slots)}
		}
		if job.Conf.DataCentricOff {
			return nil, &RunError{Phase: "validate", Rank: -1,
				Err: errors.New("core: Streaming requires data-centric scheduling")}
		}
	}
	rt := &Runtime{
		job:            job,
		id:             runtimeIDs.Add(1),
		aborted:        make(chan struct{}),
		failRank:       -1,
		cpSeq:          map[int]int{},
		skipByTask:     map[int]int64{},
		cpFramesByTask: map[int]map[int]int64{},
		reloadProc:     map[string]int{},
	}
	rt.abortCtx, rt.abortCancel = context.WithCancel(context.Background())
	defer rt.abortCancel()
	for _, o := range opts {
		o(&rt.rcfg)
	}
	if ctx != nil && ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				rt.fail(ctx.Err())
			case <-watchDone:
			}
		}()
	}
	start := time.Now()
	if err := rt.setup(); err != nil {
		return nil, rt.runError("setup", err)
	}
	defer rt.teardown()
	rt.res.SetupTime = time.Since(start)
	if job.Progress != nil {
		job.Progress.SetTotals(job.NumO*job.Rounds, job.NumA*job.Rounds)
	}

	if job.Conf.FaultTolerance {
		if err := rt.reload(); err != nil {
			return nil, rt.runError("reload", err)
		}
	}
	for r := 0; r < job.Rounds; r++ {
		t0 := time.Now()
		if err := rt.runRound(r); err != nil {
			return nil, rt.runError("run", err)
		}
		rt.res.RoundTimes = append(rt.res.RoundTimes, time.Since(t0))
		if job.KeepGoing != nil && r < job.Rounds-1 && !job.KeepGoing(r) {
			break // converged early
		}
	}
	if err := rt.shutdownWorkers(); err != nil {
		return nil, rt.runError("shutdown", err)
	}
	rt.res.Elapsed = time.Since(start)
	rt.res.RecordsSent = rt.sent.Load()
	rt.res.BytesShuffled = rt.bytesShuffled.Load()
	rt.res.SpilledBytes = rt.spilledBytes.Load()
	rt.res.RuntimeCounters = rt.ctrs.snapshot(rt.world.Stats())
	// In a distributed run the shuffle happened inside the worker
	// processes; fold the counters their byes carried into the result.
	for k, v := range rt.distCtrs {
		rt.res.RuntimeCounters[k] += v
	}
	res := rt.res
	return &res, nil
}

func (rt *Runtime) setup() error {
	j := rt.job
	if rt.rcfg.world != nil {
		return rt.setupDist()
	}
	var wopts []mpi.Option
	if rt.rcfg.tcp {
		wopts = append(wopts, mpi.WithTCP())
	}
	if rt.rcfg.shm && !j.Conf.ShmOff {
		wopts = append(wopts, mpi.WithShm())
	}
	if rt.rcfg.link != nil {
		wopts = append(wopts, mpi.WithLink(rt.rcfg.link))
	}
	if rt.inj = j.hooks.injector(); rt.inj != nil {
		wopts = append(wopts, mpi.WithFaults(rt.inj))
	}
	if d := j.Conf.IOTimeout; d > 0 {
		wopts = append(wopts, mpi.WithSendTimeout(d))
	}
	wopts = append(wopts, mpi.WithEngine(Engine(&j.Conf)))
	rt.ctrs = newRuntimeCounters(j.Procs)
	if j.Trace.Enabled() {
		// TCP retransmits surface as instants on the retrying sender's row.
		tr := j.Trace
		wopts = append(wopts, mpi.WithRetryHook(func(src, dst, attempt int) {
			tr.Rank(src).Instant(tidSend, "mpi.retry", "fault",
				map[string]any{"dst": dst, "attempt": attempt})
		}))
		rt.nameTraceRows()
	}
	world, err := mpi.NewWorld(j.Procs+1, wopts...)
	if err != nil {
		return err
	}
	rt.world = world
	workerRanks := make([]int, j.Procs)
	for i := range workerRanks {
		workerRanks[i] = i
	}
	comms, err := world.NewComm(workerRanks)
	if err != nil {
		world.Close()
		return err
	}
	ics, err := mpi.NewIntercomm(world, []int{j.Procs}, workerRanks)
	if err != nil {
		world.Close()
		return err
	}
	rt.masterIC = ics[j.Procs]
	rt.workerICs = ics[:j.Procs]
	rt.procs = make([]*process, j.Procs)
	for i := 0; i < j.Procs; i++ {
		rt.procs[i] = newProcess(rt, i, comms[i])
	}
	for _, p := range rt.procs {
		rt.wg.Add(1)
		go func(p *process) {
			defer rt.wg.Done()
			rt.workerLoop(p)
		}(p)
	}
	rt.assignO = fillInt(j.NumO, -1)
	rt.assignA = fillInt(j.NumA, -1)
	rt.res.OTaskSent = make([]int64, j.NumO)
	rt.res.ATaskReceived = make([]int64, j.NumA)
	rt.computeLocalityPrefs()
	return nil
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

// computeLocalityPrefs derives each O task's preferred process from its
// input splits (the same rank-round-robin mapping the load utility uses).
func (rt *Runtime) computeLocalityPrefs() {
	j := rt.job
	rt.prefProc = fillInt(j.NumO, -1)
	if len(j.Input) == 0 {
		return
	}
	procByHost := map[int]int{}
	for p := 0; p < j.Procs; p++ {
		h := j.HostOfProc(p)
		if _, ok := procByHost[h]; !ok {
			procByHost[h] = p
		}
	}
	for t := 0; t < j.NumO; t++ {
		for _, s := range hdfs.SplitsForRank(j.Input, t, j.NumO) {
			if len(s.Block.Hosts) == 0 {
				continue
			}
			if p, ok := procByHost[s.Block.Hosts[0]]; ok {
				rt.prefProc[t] = p
				break
			}
		}
	}
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

// firstErr prefers the recorded root cause over a secondary error.
func (rt *Runtime) firstErr(err error) error {
	if e := rt.err(); e != nil {
		return e
	}
	return err
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
// failure, and (when Config.IOTimeout is set) wakes at that interval to
// sweep the failure detector for silently dead workers.
func (rt *Runtime) recvMasterEvent() (eventMsg, error) {
	for {
		ctx := rt.abortCtx
		var cancel context.CancelFunc
		if d := rt.job.Conf.IOTimeout; d > 0 {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
		b, _, err := rt.masterIC.RecvContext(ctx, mpi.AnySource, tagEvent)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return decodeEvent(b)
		}
		if e := rt.err(); e != nil {
			return eventMsg{}, e
		}
		if errors.Is(err, mpi.ErrTimeout) {
			// Deadline tick with no failure recorded yet: consult the
			// failure detector, then keep waiting.
			if p := rt.deadWorker(); p >= 0 {
				if rt.canPartialRestart() {
					// Surface the death as a synthetic event instead of
					// failing: the round scheduler recovers just that rank.
					return eventMsg{Type: "rankDead", Proc: p}, nil
				}
				derr := fmt.Errorf("core: worker process %d died: %w", p, mpi.ErrRankDead)
				rt.fail(derr)
				return eventMsg{}, derr
			}
			continue
		}
		return eventMsg{}, err
	}
}

// maxPartialRestarts bounds respawns per run: a rank that keeps dying
// indicates something systemic, so escalate to a whole-attempt failure.
const maxPartialRestarts = 3

// canPartialRestart reports whether a worker death right now is
// recoverable in place. Master event loop only.
func (rt *Runtime) canPartialRestart() bool {
	return rt.recoveryArmed && rt.job.Conf.PartialRestart && rt.distMaster &&
		rt.rcfg.respawn != nil && rt.respawnsUsed < maxPartialRestarts
}

// rankDeadError marks a control send that failed because its target rank
// is dead, naming the rank so the scheduler can recover it in place.
type rankDeadError struct {
	rank int
	err  error
}

func (e *rankDeadError) Error() string { return e.err.Error() }
func (e *rankDeadError) Unwrap() error { return e.err }

// deadWorker returns the lowest dead worker rank, or -1.
func (rt *Runtime) deadWorker() int {
	for p := 0; p < rt.job.Procs; p++ {
		if rt.world.RankDead(p) {
			return p
		}
	}
	return -1
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
	p := rt.assignO[task]
	if p < 0 {
		p = 0
	}
	return p
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
	if len(c) == 0 {
		return
	}
	if rt.res.Counters == nil {
		rt.res.Counters = map[string]int64{}
	}
	for k, v := range c {
		rt.res.Counters[k] += v
	}
}

// ---------------------------------------------------------------------------
// Checkpoint reload

// chunkRecordCount validates a chunk's footer and returns its record count.
func chunkRecordCount(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() < 12 {
		return 0, errors.New("core: checkpoint too small")
	}
	var foot [12]byte
	if _, err := f.ReadAt(foot[:], st.Size()-12); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(foot[0:]) != 0 {
		return 0, errors.New("core: checkpoint footer missing")
	}
	return int64(binary.BigEndian.Uint64(foot[4:])), nil
}

// countChunkFrames folds one committed chunk's per-partition frame counts
// into cpFramesByTask (under cpMu).
func (rt *Runtime) countChunkFrames(task int, path string) error {
	counts := map[int]int64{}
	if _, err := readChunk(path, func(payload []byte) error {
		partition, _, _, _, _, _, err := decodePayload(payload)
		if err != nil {
			return err
		}
		counts[partition]++
		return nil
	}); err != nil {
		return err
	}
	rt.cpMu.Lock()
	m := rt.cpFramesByTask[task]
	if m == nil {
		m = map[int]int64{}
		rt.cpFramesByTask[task] = m
	}
	for p, n := range counts {
		m[p] += n
	}
	rt.cpMu.Unlock()
	return nil
}

// reload finds complete checkpoint chunks from a previous attempt, assigns
// them to processes for re-injection, and records per-task skip counts.
func (rt *Runtime) reload() error {
	chunks, err := listChunks(rt.job.Conf.CheckpointDir)
	if err != nil {
		return err
	}
	if len(chunks) == 0 {
		return nil
	}
	t0 := time.Now()
	perProc := make([][]string, rt.job.Procs)
	i := 0
	for _, ch := range chunks {
		n, err := chunkRecordCount(ch.path)
		if err != nil {
			continue // incomplete chunk: ignore, do not skip its records
		}
		if rt.job.Conf.PartialRestart {
			// A later partial restart re-runs tasks with seeded frame
			// numbering; reloaded frames keep their original (partition,
			// idx) labels, so they must be part of the seed.
			if err := rt.countChunkFrames(ch.task, ch.path); err != nil {
				return err
			}
		}
		rt.cpMu.Lock()
		rt.skipByTask[ch.task] += n
		if ch.seq >= rt.cpSeq[ch.task] {
			rt.cpSeq[ch.task] = ch.seq + 1
		}
		rt.cpMu.Unlock()
		proc := i % rt.job.Procs
		perProc[proc] = append(perProc[proc], ch.path)
		if rt.reloadProc != nil {
			rt.reloadProc[ch.path] = proc
		}
		i++
	}
	if rt.job.Mode == Streaming {
		// Streaming re-injection is flow-controlled: senders block on the
		// credit window until the A-side consumers drain. Those consumers are
		// dispatched at the start of the first round, so hand the assignments
		// to runRound instead of re-injecting (and deadlocking) here.
		rt.deferredReload = perProc
		rt.res.ReloadTime = time.Since(t0)
		return nil
	}
	sentTo := 0
	for p, paths := range perProc {
		if len(paths) == 0 {
			continue
		}
		if err := sendCtrl(rt.masterIC, p, ctrlMsg{Type: "reload", Paths: paths, Round: 0}); err != nil {
			return err
		}
		sentTo++
	}
	for done := 0; done < sentTo; {
		ev, err := rt.recvMasterEvent()
		if err != nil {
			return err
		}
		switch ev.Type {
		case "reloadDone":
			rt.res.RecordsReloaded += ev.Records
			done++
		case "error":
			return eventError(ev)
		default:
			return fmt.Errorf("core: unexpected event %q during reload", ev.Type)
		}
	}
	rt.res.ReloadTime = time.Since(t0)
	return nil
}

// ---------------------------------------------------------------------------
// Round scheduling

func (rt *Runtime) runRound(r int) error {
	j := rt.job
	roundStart := time.Now()
	// The previous round's reverse exchange is closed at the start of this
	// round (not at the end of that one), so a job that stops early never
	// leaves an end-marker broadcast racing shutdown.
	if j.Mode == Iteration && r > 0 {
		for p := 0; p < j.Procs; p++ {
			if err := sendCtrl(rt.masterIC, p, ctrlMsg{Type: "endRev", Round: r - 1}); err != nil {
				return err
			}
		}
	}
	slotsO := fillInt(j.Procs, j.Slots)
	slotsA := fillInt(j.Procs, j.Slots)
	oPending := seq(j.NumO)
	aPending := seq(j.NumA)
	oDone, aDone := 0, 0
	endOSent := false

	anyFree := func(slots []int) int {
		for p, s := range slots {
			if s > 0 {
				return p
			}
		}
		return -1
	}
	assignOTask := func(t, p int) error {
		slotsO[p]--
		rt.assignMu.Lock()
		rt.assignO[t] = p
		rt.assignMu.Unlock()
		rt.cpMu.Lock()
		skip := rt.skipByTask[t]
		seq := rt.cpSeq[t]
		var cpf map[int]int64
		if m := rt.cpFramesByTask[t]; len(m) > 0 {
			cpf = make(map[int]int64, len(m))
			for part, n := range m {
				cpf[part] = n
			}
		}
		rt.cpMu.Unlock()
		err := sendCtrl(rt.masterIC, p, ctrlMsg{
			Type: "runO", Task: t, Round: r, Skip: skip, CPSeq: seq, CPFrames: cpf,
		})
		if err != nil && errors.Is(err, mpi.ErrRankDead) {
			// The target died between failure-detector sweeps. Name the
			// rank so the scheduler can recover it in place; the task stays
			// assigned to p, and the recovery re-queues it.
			return &rankDeadError{rank: p, err: err}
		}
		return err
	}
	dispatchO := func() error {
		var rest []int
		// Pass 1: bound tasks (later Iteration rounds must reuse their
		// process) and locality-preferred first-round tasks.
		for _, t := range oPending {
			if r > 0 {
				if bound := rt.assignO[t]; slotsO[bound] > 0 {
					if err := assignOTask(t, bound); err != nil {
						return err
					}
				} else {
					rest = append(rest, t)
				}
				continue
			}
			if pref := rt.prefProc[t]; pref >= 0 && slotsO[pref] > 0 {
				rt.res.LocalOTasks++
				if err := assignOTask(t, pref); err != nil {
					return err
				}
				continue
			}
			rest = append(rest, t)
		}
		// Pass 2: any free slot (first round only).
		oPending = oPending[:0]
		for _, t := range rest {
			if r > 0 {
				oPending = append(oPending, t)
				continue
			}
			p := anyFree(slotsO)
			if p < 0 {
				oPending = append(oPending, t)
				continue
			}
			if rt.prefProc[t] >= 0 {
				rt.res.NonLocalOTasks++
			}
			if err := assignOTask(t, p); err != nil {
				return err
			}
		}
		return nil
	}
	dispatchA := func() error {
		var rest []int
		for _, t := range aPending {
			want := rt.assignA[t]
			if want < 0 {
				if j.Conf.DataCentricOff {
					want = (t + 1) % j.Procs
				} else {
					want = rt.ownerProc(t)
				}
			}
			if slotsA[want] <= 0 {
				rest = append(rest, t)
				continue
			}
			slotsA[want]--
			rt.assignMu.Lock()
			rt.assignA[t] = want
			rt.assignMu.Unlock()
			if want == rt.ownerProc(t) {
				rt.res.LocalATasks++
			} else {
				rt.res.RemoteATasks++
			}
			m := ctrlMsg{Type: "runA", Task: t, Round: r}
			if rt.distMaster {
				rt.assignMu.Lock()
				m.AssignO = append([]int(nil), rt.assignO...)
				rt.assignMu.Unlock()
			}
			if err := sendCtrl(rt.masterIC, want, m); err != nil {
				return err
			}
		}
		aPending = rest
		return nil
	}
	broadcastCtrl := func(m ctrlMsg) error {
		for p := 0; p < j.Procs; p++ {
			if err := sendCtrl(rt.masterIC, p, m); err != nil {
				return err
			}
		}
		return nil
	}

	oDoneTasks := make([]bool, j.NumO)
	aDoneTasks := make([]bool, j.NumA)
	recovering := false

	maybeEndO := func() error {
		if oDone < j.NumO || endOSent || rt.pendingReloads > 0 {
			return nil
		}
		endOSent = true
		rt.recoveryArmed = false // A-side state is not replayable
		rt.res.OPhaseTimes = append(rt.res.OPhaseTimes, time.Since(roundStart))
		if err := broadcastCtrl(ctrlMsg{Type: "endO", Round: r}); err != nil {
			return err
		}
		if j.Mode != Streaming {
			return dispatchA()
		}
		return nil
	}
	handleODone := func(ev eventMsg) error {
		oDone++
		oDoneTasks[ev.Task] = true
		slotsO[ev.Proc]++
		if j.Conf.PartialRestart {
			// A re-run after a partial restart reports only its post-skip
			// records; the recovery pre-seeded the committed base, so the
			// sum is the task's full count. (Exclusive of Iteration mode,
			// whose cumulative per-round reports need the plain overwrite.)
			rt.res.OTaskSent[ev.Task] += ev.Records
		} else {
			rt.res.OTaskSent[ev.Task] = ev.Records
		}
		rt.mergeCounters(ev.Counters)
		if err := dispatchO(); err != nil {
			return err
		}
		if recovering {
			return nil // endO is decided after the recovery settles
		}
		return maybeEndO()
	}
	handleADone := func(ev eventMsg) error {
		aDone++
		aDoneTasks[ev.Task] = true
		slotsA[ev.Proc]++
		rt.res.ATaskReceived[ev.Task] = ev.Records
		rt.mergeCounters(ev.Counters)
		if endOSent || j.Mode == Streaming {
			return dispatchA()
		}
		return nil
	}
	// awaitN pumps the event stream until n events of the wanted type have
	// arrived, handling ordinary completions in between (survivors keep
	// working through a recovery).
	awaitN := func(want string, n int) error {
		for n > 0 {
			ev, err := rt.recvMasterEvent()
			if err != nil {
				return err
			}
			switch ev.Type {
			case want:
				n--
			case "oDone":
				if err := handleODone(ev); err != nil {
					return err
				}
			case "aDone":
				if err := handleADone(ev); err != nil {
					return err
				}
			case "reloadDone":
				rt.res.RecordsReloaded += ev.Records
				rt.pendingReloads--
			case "error":
				return eventError(ev)
			default:
				return fmt.Errorf("core: unexpected event %q awaiting %s", ev.Type, want)
			}
		}
		return nil
	}

	// recoverRank restarts only the dead rank (§IV-B fault tolerance,
	// partial-restart form): survivors keep their merge state and keep
	// running; the replacement replays committed chunks and re-runs only
	// the dead rank's O tasks from their checkpoint cut.
	recoverRank := func(dead int) error {
		recovering = true
		rt.recoveryArmed = false // a second death mid-recovery is fatal
		defer func() { recovering = false }()
		rt.respawnsUsed++
		mtb := j.Trace.Rank(j.Procs)
		tstart := mtb.Start()
		addr, err := rt.rcfg.respawn(dead)
		if err != nil {
			return fmt.Errorf("core: respawning worker %d: %w", dead, err)
		}
		if err := rt.world.ReplaceRank(dead, addr); err != nil {
			return err
		}
		// Rejoin barrier: every survivor patches its transport directory
		// and seals all open checkpoint chunks, so the scan below sees
		// every frame ever sent (or dropped while the rank was down).
		for p := 0; p < j.Procs; p++ {
			if p == dead {
				continue
			}
			if err := sendCtrl(rt.masterIC, p, ctrlMsg{Type: "rejoin", Round: r, Rank: dead, Addr: addr}); err != nil {
				return err
			}
		}
		if err := awaitN("rejoinDone", j.Procs-1); err != nil {
			return err
		}
		if j.Mode == Streaming {
			// The dead rank's A tasks died with it, and the replay below can
			// only drain against the credit window once its partitions have
			// consumers again — so requeue and redispatch them first. The
			// replacement rebuilds their state from the full replay; its
			// consumers suppress re-emission of already-published windows
			// (the emit fence), making the re-delivery exactly-once.
			requeued := 0
			rt.assignMu.Lock()
			for t := 0; t < j.NumA; t++ {
				if rt.assignA[t] == dead && !aDoneTasks[t] {
					aPending = append(aPending, t)
					requeued++
				}
			}
			rt.assignMu.Unlock()
			slotsA[dead] += requeued // their slots died with the old incarnation
			if err := dispatchA(); err != nil {
				return err
			}
		}
		// Scan committed chunks: recompute the dead tasks' skip counts,
		// chunk numbering and frame labels from scratch (old and new
		// chunks alike), and split the replay. Dead-task chunks replay
		// unfiltered — any of their deliveries may have died in a socket
		// buffer; survivor-task chunks replay only the frames whose
		// partitions the dead rank owned (its lost merge state).
		deadTask := map[int]bool{}
		rt.assignMu.Lock()
		for t := 0; t < j.NumO; t++ {
			if rt.assignO[t] == dead {
				deadTask[t] = true
			}
		}
		rt.assignMu.Unlock()
		chunks, err := listChunks(j.Conf.CheckpointDir)
		if err != nil {
			return err
		}
		rt.cpMu.Lock()
		for t := range deadTask {
			rt.skipByTask[t] = 0
			rt.cpSeq[t] = 0
			delete(rt.cpFramesByTask, t)
		}
		rt.cpMu.Unlock()
		skip := map[int]int64{}
		var deadPaths, survivorPaths []string
		for _, ch := range chunks {
			if deadTask[ch.task] {
				n, err := chunkRecordCount(ch.path)
				if err != nil {
					continue // incomplete: neither counted nor replayed
				}
				if err := rt.countChunkFrames(ch.task, ch.path); err != nil {
					return err
				}
				rt.cpMu.Lock()
				rt.skipByTask[ch.task] += n
				if ch.seq >= rt.cpSeq[ch.task] {
					rt.cpSeq[ch.task] = ch.seq + 1
				}
				rt.cpMu.Unlock()
				skip[ch.task] += n
				deadPaths = append(deadPaths, ch.path)
				continue
			}
			if p, ok := rt.reloadProc[ch.path]; ok && p == dead {
				// The dead rank was re-injecting this prior-attempt chunk;
				// whatever was still in its pipeline is gone, so replay it
				// all (receivers deduplicate).
				deadPaths = append(deadPaths, ch.path)
				continue
			}
			survivorPaths = append(survivorPaths, ch.path)
		}
		if err := sendCtrl(rt.masterIC, dead, ctrlMsg{Type: "replay", Round: r, Paths: deadPaths, ReplayOwner: -1}); err != nil {
			return err
		}
		if err := sendCtrl(rt.masterIC, dead, ctrlMsg{Type: "replay", Round: r, Paths: survivorPaths, ReplayOwner: dead}); err != nil {
			return err
		}
		if err := awaitN("replayDone", 2); err != nil {
			return err
		}
		// Re-queue only the dead rank's tasks; survivors keep everything.
		for t := range deadTask {
			if oDoneTasks[t] {
				oDone--
				oDoneTasks[t] = false
			} else {
				slotsO[dead]++ // its slot died with the old incarnation
			}
			// Seed the committed base; the re-run's report adds the rest.
			rt.res.OTaskSent[t] = skip[t]
			rt.prefProc[t] = dead
			oPending = append(oPending, t)
		}
		rt.ctrs.partialRestarts.Add(1)
		mtb.Span(tidControl, "restart.partial", "fault", tstart,
			map[string]any{"rank": dead, "tasks": len(deadTask),
				"replayChunks": len(deadPaths) + len(survivorPaths)})
		recovering = false
		rt.recoveryArmed = true
		if err := dispatchO(); err != nil {
			return err
		}
		return maybeEndO()
	}

	rt.recoveryArmed = j.Conf.PartialRestart && rt.distMaster && rt.rcfg.respawn != nil
	defer func() { rt.recoveryArmed = false }()
	if j.Mode == Streaming {
		if err := dispatchA(); err != nil {
			return err
		}
	}
	if r == 0 && len(rt.deferredReload) > 0 {
		// Streaming checkpoint re-injection, deferred past the A dispatch so
		// its consumers are live before reloaded frames hit the credit window.
		for p, paths := range rt.deferredReload {
			if len(paths) == 0 {
				continue
			}
			if err := sendCtrl(rt.masterIC, p, ctrlMsg{Type: "reload", Paths: paths, Round: 0}); err != nil {
				return err
			}
			rt.pendingReloads++
		}
		rt.deferredReload = nil
	}
	if err := dispatchO(); err != nil {
		return err
	}
	for oDone < j.NumO || aDone < j.NumA {
		ev, err := rt.recvMasterEvent()
		if err != nil {
			return err
		}
		var herr error
		switch ev.Type {
		case "error":
			return eventError(ev)
		case "rankDead":
			herr = recoverRank(ev.Proc)
		case "oDone":
			herr = handleODone(ev)
		case "aDone":
			herr = handleADone(ev)
		case "reloadDone":
			rt.res.RecordsReloaded += ev.Records
			rt.pendingReloads--
			if rt.pendingReloads == 0 {
				herr = maybeEndO()
			}
		default:
			return fmt.Errorf("core: unexpected event %q", ev.Type)
		}
		if herr != nil {
			// A control send that hit a dead rank is recoverable too: the
			// death just surfaced on the master's side first.
			var rde *rankDeadError
			if errors.As(herr, &rde) && rt.canPartialRestart() {
				if err := recoverRank(rde.rank); err != nil {
					return err
				}
				continue
			}
			return herr
		}
	}
	if n := len(rt.res.OPhaseTimes); n > 0 {
		rt.res.APhaseTimes = append(rt.res.APhaseTimes,
			time.Since(roundStart)-rt.res.OPhaseTimes[n-1])
	}
	return nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func (rt *Runtime) shutdownWorkers() error {
	for p := 0; p < rt.job.Procs; p++ {
		if err := sendCtrl(rt.masterIC, p, ctrlMsg{Type: "shutdown"}); err != nil {
			return err
		}
	}
	for byes := 0; byes < rt.job.Procs; {
		ev, err := rt.recvMasterEvent()
		if err != nil {
			return err
		}
		switch ev.Type {
		case "bye":
			rt.absorbBye(ev)
			byes++
		case "error":
			return eventError(ev)
		}
	}
	return nil
}
