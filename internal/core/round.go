package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"datampi/internal/hdfs"
	"datampi/internal/mpi"
)

// The master's scheduler (§IV-B) is one state machine. A round keeps the
// schedule in plain fields, handle applies one worker event and returns
// the control messages it calls for, and Runtime.pump is the only loop.
//
//	reloading --every reloadDone--> running --rankDead before endO--> rejoining
//	rejoining --every survivor's rejoinDone--> replaying --both replayDones--> running
//	running --last round's oDones and aDones--> ending --every bye--> finished
//
// A batch reload finishes before the first O dispatch; a Streaming reload
// is sent between round 0's A and O dispatch. endO waits for both.
type phase int

const (
	reloading phase = iota // batch checkpoint re-injection before round 0
	running                // tasks dispatched as slots free up
	rejoining              // survivors seal their chunks for a dead rank's replacement
	replaying              // the replacement replays committed chunks
	ending                 // shutdown sent, collecting byes
	finished
)

func (p phase) String() string {
	return [...]string{"reloading", "running", "rejoining", "replaying", "ending", "finished"}[p]
}

// reply is the control reply the phase collects (r.replies counts them).
func (p phase) reply() string {
	return [...]string{rejoining: "rejoinDone", replaying: "replayDone", ending: "bye", finished: ""}[p]
}

// runPhase is the RunError.Phase of a failure in this phase.
func (p phase) runPhase() string {
	return [...]string{"reload", "run", "run", "run", "shutdown", "shutdown"}[p]
}

// Events the pump synthesizes; they never cross the wire.
const (
	evTick     = "tick"     // IOTimeout passed without an event, every worker alive
	evRankDead = "rankDead" // the failure detector or a control send found a dead worker
)

// ctrlReplyTimeouts is how many IOTimeouts the round waits on control
// replies without one arriving. Task completions have no such bound: a
// task may run long, and the liveness sweep covers its worker.
const ctrlReplyTimeouts = 10

// maxPartialRestarts bounds respawns per run: a rank that keeps dying
// indicates something systemic, so escalate to a whole-attempt failure.
const maxPartialRestarts = 3

type ctrlSend struct {
	to  int
	msg ctrlMsg
}

// restartSteps are the two recovery steps that send no control message:
// respawning a dead rank and pointing the master's transport at the
// replacement, and scanning the committed chunks (see scanChunks).
type restartSteps struct {
	replace func(rank int) (addr string, err error)
	scan    func(lost func(task int) bool) ([]cpChunk, error)
}

type taskState uint8

const (
	taskPending taskState = iota
	taskRunning
	taskDone
	taskLost // its rank died; pending again once the replacement has replayed
)

type round struct {
	rt  *Runtime
	job *Job
	now func() time.Time

	r     int
	phase phase
	start time.Time

	// This round's tasks; the pending queues keep dispatch order.
	oState, aState     []taskState
	oPending, aPending []int
	oDone, aDone       int
	endOSent           bool
	slotsO, slotsA     []int
	assignA            []int // A task -> process, kept across rounds
	prefProc           []int // O task -> process holding its input, or -1

	reload      [][]string // checkpoint chunks per re-injecting process
	reloadStart time.Time  // when the checkpoint scan began
	reloadOwed  []bool     // per process: a reloadDone is due

	restartable bool
	steps       restartSteps
	respawns    int
	down        int   // rank under recovery, -1 none: no O task goes there
	lost        []int // its O tasks
	replayed    int   // chunks its replacement replays
	restartAt   time.Time

	replies   []int // per rank: phase.reply()s still owed
	deadline  time.Duration
	waitFor   string // the awaited replies since waitSince
	waitSince time.Time
	lastEvent []time.Time

	out []ctrlSend
}

// newRound builds the job's schedule; reload is the checkpoint plan (nil
// without one), scanned from reloadStart.
func newRound(rt *Runtime, reload [][]string, reloadStart time.Time) *round {
	j := rt.job
	rt.assignO = fillInt(j.NumO, -1)
	rt.res.OTaskSent, rt.res.ATaskReceived = make([]int64, j.NumO), make([]int64, j.NumA)
	return &round{
		rt: rt, job: j, now: time.Now,
		assignA:     fillInt(j.NumA, -1),
		prefProc:    rt.localityPrefs(),
		reload:      reload,
		reloadStart: reloadStart,
		reloadOwed:  make([]bool, j.Procs),
		restartable: j.Conf.PartialRestart && rt.distMaster && rt.rcfg.respawn != nil,
		steps: restartSteps{
			replace: func(rank int) (string, error) {
				addr, err := rt.rcfg.respawn(rank)
				if err != nil {
					return "", fmt.Errorf("core: respawning worker %d: %w", rank, err)
				}
				return addr, rt.world.ReplaceRank(rank, addr)
			},
			scan: func(lost func(int) bool) ([]cpChunk, error) {
				return scanChunks(j.Conf.CheckpointDir, lost, true)
			},
		},
		down:      -1,
		replies:   make([]int, j.Procs),
		deadline:  ctrlReplyTimeouts * j.Conf.IOTimeout,
		lastEvent: make([]time.Time, j.Procs),
	}
}

// pump drives the round to the end of the job. A control send that finds
// its target dead is the same transition as the failure detector's
// verdict. Any error fails the run.
func (rt *Runtime) pump(rd *round) error {
	rd.begin()
	out, err := rd.handle(eventMsg{Type: evTick})
	for err == nil {
		var dead int
		if dead, err = rt.sendAll(out); err != nil {
			break
		}
		ev := eventMsg{Type: evRankDead, Proc: dead}
		if dead < 0 {
			if rd.phase == finished {
				return nil
			}
			if ev, err = rt.recvMasterEvent(); err != nil {
				break
			}
		}
		out, err = rd.handle(ev)
	}
	rt.fail(err)
	return err
}

// sendAll sends a transition's messages in order. It skips those to the
// first rank it finds dead and returns that rank; a second is an error.
func (rt *Runtime) sendAll(out []ctrlSend) (dead int, err error) {
	dead = -1
	for _, s := range out {
		if s.to == dead {
			continue
		}
		if err := sendCtrl(rt.masterIC, s.to, s.msg); dead < 0 && errors.Is(err, mpi.ErrRankDead) {
			dead = s.to
		} else if err != nil {
			return dead, err
		}
	}
	return dead, nil
}

// begin starts the schedule, a batch reload first, else round 0, and
// queues its messages for the first handle.
func (r *round) begin() {
	if r.reload == nil || r.job.Mode == Streaming {
		r.startRound(0)
		return
	}
	r.phase = reloading
	r.sendReloads()
	r.reloaded()
}

// handle applies one event and returns the control messages to send.
func (r *round) handle(ev eventMsg) ([]ctrlSend, error) {
	now := r.now()
	err := r.transition(ev, now)
	if err == nil && r.phase == running && r.endOSent && r.oDone == r.job.NumO && r.aDone == r.job.NumA {
		r.endRound()
	}
	if err == nil {
		err = r.overdue(now)
	}
	out := r.out
	r.out = nil
	return out, err
}

func (r *round) send(to int, m ctrlMsg) { r.out = append(r.out, ctrlSend{to, m}) }

func (r *round) transition(ev eventMsg, now time.Time) error {
	p := ev.Proc
	if p < 0 || p >= r.job.Procs {
		return fmt.Errorf("core: event %q from unknown worker %d", ev.Type, p)
	}
	if ev.Type == evRankDead {
		return r.rankDead(p)
	} else if ev.Type != evTick {
		r.lastEvent[p] = now
	}
	working := r.phase == running || r.phase == rejoining || r.phase == replaying
	switch {
	case ev.Type == evTick:
	case ev.Type == "error":
		return eventError(ev)
	case ev.Type == "reloadDone" && r.phase != ending:
		r.reloadDone(ev)
	case ev.Type == "oDone" && working:
		r.oTaskDone(ev)
	case ev.Type == "aDone" && working:
		r.aTaskDone(ev)
	case ev.Type == r.phase.reply() && r.replies[p] > 0:
		r.replies[p]--
		if ev.Type == "bye" {
			r.rt.absorbBye(ev)
		}
		if slices.ContainsFunc(r.replies, func(n int) bool { return n > 0 }) {
			return nil
		}
		switch r.phase {
		case rejoining:
			return r.replay()
		case replaying:
			r.resume()
		default:
			r.phase = finished
		}
	case r.phase != ending: // in ending, stragglers of the last round are dropped
		return fmt.Errorf("core: unexpected event %q from worker %d while %s", ev.Type, p, r.phase)
	}
	return nil
}

// startRound resets the per-round state and dispatches round n.
func (r *round) startRound(n int) {
	j := r.job
	r.r, r.phase, r.start = n, running, r.now()
	r.oState, r.aState = make([]taskState, j.NumO), make([]taskState, j.NumA)
	r.oPending, r.aPending = seq(j.NumO), seq(j.NumA)
	r.oDone, r.aDone, r.endOSent = 0, 0, false
	r.slotsO, r.slotsA = fillInt(j.Procs, j.Slots), fillInt(j.Procs, j.Slots)
	// The previous round's reverse exchange is closed here, not at the end
	// of that round, so a job that stops early never leaves an end-marker
	// broadcast racing shutdown.
	for p := 0; p < j.Procs && j.Mode == Iteration && n > 0; p++ {
		r.send(p, ctrlMsg{Type: "endRev", Round: n - 1})
	}
	if j.Mode == Streaming {
		r.dispatchA()
		if n == 0 && r.reload != nil {
			// Reloaded frames flow against the credit window: their
			// consumers go first.
			r.sendReloads()
			r.rt.res.ReloadTime = r.now().Sub(r.reloadStart)
		}
	}
	r.dispatchO()
}

// endRound records the round's times, then starts the next or shuts down.
func (r *round) endRound() {
	j, res, now := r.job, &r.rt.res, r.now()
	if n := len(res.OPhaseTimes); n > 0 {
		res.APhaseTimes = append(res.APhaseTimes, now.Sub(r.start)-res.OPhaseTimes[n-1])
	}
	res.RoundTimes = append(res.RoundTimes, now.Sub(r.start))
	if r.r < j.Rounds-1 && (j.KeepGoing == nil || j.KeepGoing(r.r)) {
		r.startRound(r.r + 1)
		return
	}
	r.phase = ending
	for p := range r.replies {
		r.replies[p] = 1
		r.send(p, ctrlMsg{Type: "shutdown"})
	}
}

func (r *round) sendReloads() {
	for p, paths := range r.reload {
		if len(paths) > 0 {
			r.reloadOwed[p] = true
			r.send(p, ctrlMsg{Type: "reload", Paths: paths, Round: 0})
		}
	}
}

func (r *round) reloadDone(ev eventMsg) {
	if r.reloadOwed[ev.Proc] { // else a dead incarnation's: the replay re-sent its chunks
		r.reloadOwed[ev.Proc] = false
		r.rt.res.RecordsReloaded += ev.Records
		r.reloaded()
	}
}

// reloaded moves on once every reload is delivered: a batch reload starts
// round 0, a Streaming one lets endO go.
func (r *round) reloaded() {
	if slices.Contains(r.reloadOwed, true) {
		return
	}
	if r.phase == reloading {
		r.rt.res.ReloadTime = r.now().Sub(r.reloadStart)
		r.startRound(0)
	}
	r.maybeEndO()
}

func (r *round) oTaskDone(ev eventMsg) {
	t, rt := ev.Task, r.rt
	if t < 0 || t >= len(r.oState) || r.oState[t] != taskRunning || rt.assignO[t] != ev.Proc {
		return // a dead incarnation's: the task is pending again
	}
	r.oState[t] = taskDone
	r.oDone++
	r.slotsO[ev.Proc]++
	if r.job.Conf.PartialRestart {
		// A re-run reports its post-skip records on top of the committed
		// base resume seeded; Iteration mode reports cumulative counts.
		rt.res.OTaskSent[t] += ev.Records
	} else {
		rt.res.OTaskSent[t] = ev.Records
	}
	rt.mergeCounters(ev.Counters)
	r.dispatchO()
	r.maybeEndO()
}

func (r *round) aTaskDone(ev eventMsg) {
	t := ev.Task
	if t < 0 || t >= len(r.aState) || r.aState[t] != taskRunning || r.assignA[t] != ev.Proc {
		return
	}
	r.aState[t] = taskDone
	r.aDone++
	r.slotsA[ev.Proc]++
	r.rt.res.ATaskReceived[t] = ev.Records
	r.rt.mergeCounters(ev.Counters)
	if r.endOSent || r.job.Mode == Streaming {
		r.dispatchA()
	}
}

// maybeEndO closes the O phase once every O task is done and every reload
// delivered. The A side is not replayable: from then on a death is fatal.
func (r *round) maybeEndO() {
	if r.phase != running || r.endOSent || r.oDone < r.job.NumO || slices.Contains(r.reloadOwed, true) {
		return
	}
	r.endOSent = true
	r.rt.res.OPhaseTimes = append(r.rt.res.OPhaseTimes, r.now().Sub(r.start))
	for p := 0; p < r.job.Procs; p++ {
		r.send(p, ctrlMsg{Type: "endO", Round: r.r})
	}
	if r.job.Mode != Streaming {
		r.dispatchA()
	}
}

// dispatchO hands pending O tasks to their bound (later Iteration rounds)
// or locality-preferred process, then, in round 0, to any free slot.
func (r *round) dispatchO() {
	free := func(p int) bool { return p >= 0 && p != r.down && r.slotsO[p] > 0 }
	var rest []int
	for _, t := range r.oPending {
		p := r.prefProc[t]
		if r.r > 0 {
			p = r.rt.assignO[t]
		}
		if !free(p) {
			rest = append(rest, t)
			continue
		}
		if r.r == 0 {
			r.rt.res.LocalOTasks++
		}
		r.runO(t, p)
	}
	r.oPending = r.oPending[:0]
	for _, t := range rest {
		p := -1
		for q := range r.slotsO {
			if r.r == 0 && free(q) {
				p = q
				break
			}
		}
		if p < 0 {
			r.oPending = append(r.oPending, t)
			continue
		}
		if r.prefProc[t] >= 0 {
			r.rt.res.NonLocalOTasks++
		}
		r.runO(t, p)
	}
}

func (r *round) runO(t, p int) {
	rt := r.rt
	r.slotsO[p]--
	r.oState[t] = taskRunning
	rt.assignMu.Lock()
	rt.assignO[t] = p
	rt.assignMu.Unlock()
	rt.cpMu.Lock()
	m := ctrlMsg{Type: "runO", Task: t, Round: r.r, Skip: rt.skipByTask[t], CPSeq: rt.cpSeq[t],
		CPFrames: maps.Clone(rt.cpFramesByTask[t])}
	rt.cpMu.Unlock()
	r.send(p, m)
}

// dispatchA places pending A tasks on their previous process, else on the
// partition's owner (data-centric) or its neighbour (the ablation).
func (r *round) dispatchA() {
	j, rt := r.job, r.rt
	var rest []int
	for _, t := range r.aPending {
		want := r.assignA[t]
		if want < 0 && j.Conf.DataCentricOff {
			want = (t + 1) % j.Procs
		} else if want < 0 {
			want = rt.ownerProc(t)
		}
		if r.slotsA[want] <= 0 {
			rest = append(rest, t)
			continue
		}
		r.slotsA[want]--
		r.assignA[t] = want
		r.aState[t] = taskRunning
		if want == rt.ownerProc(t) {
			rt.res.LocalATasks++
		} else {
			rt.res.RemoteATasks++
		}
		m := ctrlMsg{Type: "runA", Task: t, Round: r.r}
		if rt.distMaster {
			m.AssignO = slices.Clone(rt.assignO)
		}
		r.send(want, m)
	}
	r.aPending = rest
}

// rankDead restarts only the dead rank (§IV-E, partial-restart form)
// while that is possible: survivors keep their merge state and keep
// running; the replacement replays committed chunks and re-runs only the
// dead rank's O tasks from their checkpoint cut. Otherwise it is fatal.
func (r *round) rankDead(dead int) error {
	if r.phase != running || r.endOSent || !r.restartable || r.respawns >= maxPartialRestarts {
		return &RunError{Phase: r.phase.runPhase(), Rank: dead,
			Err: fmt.Errorf("core: worker process %d died while %s: %w", dead, r.phase, mpi.ErrRankDead)}
	}
	r.respawns++
	r.phase, r.down, r.lost = rejoining, dead, nil
	r.restartAt = r.job.Trace.Rank(r.job.Procs).Start()
	for t, p := range r.rt.assignO {
		if p == dead {
			if r.oState[t] == taskDone {
				r.oDone--
			} else if r.oState[t] == taskRunning {
				r.slotsO[dead]++ // its slot died with the old incarnation
			}
			r.oState[t] = taskLost
			r.lost = append(r.lost, t)
		}
	}
	r.oPending = slices.DeleteFunc(r.oPending, func(t int) bool { return r.oState[t] == taskLost })
	addr, err := r.steps.replace(dead)
	if err != nil {
		return err
	}
	// Rejoin barrier: every survivor patches its transport directory and
	// seals its open chunks, so the scan sees every frame ever sent (or
	// dropped while the rank was down).
	for p := range r.replies {
		if p != dead {
			r.replies[p] = 1
			r.send(p, ctrlMsg{Type: "rejoin", Round: r.r, Rank: dead, Addr: addr})
		}
	}
	if r.job.Procs == 1 {
		return r.replay()
	}
	return nil
}

// replay has the replacement replay committed chunks once every survivor
// has sealed its own.
func (r *round) replay() error {
	rt, dead := r.rt, r.down
	r.phase = replaying
	if r.job.Mode == Streaming {
		// The dead rank's A tasks died with it, and the replay drains against
		// the credit window only once their partitions have consumers again,
		// so they go first. They rebuild their state from the full replay;
		// the emit fence keeps published windows from firing twice.
		for t, p := range r.assignA {
			if p == dead && r.aState[t] != taskDone {
				r.aState[t] = taskPending
				r.aPending = append(r.aPending, t)
				r.slotsA[dead]++
			}
		}
		r.dispatchA()
	}
	// The lost tasks' skip counts, chunk numbering and frame labels are
	// recomputed from every committed chunk. Their chunks, and those the dead
	// rank was re-injecting, replay unfiltered (any delivery may have died in
	// a socket buffer); the others replay only the dead rank's partitions.
	lost := func(t int) bool { return t >= 0 && t < len(r.oState) && r.oState[t] == taskLost }
	chunks, err := r.steps.scan(lost)
	if err != nil {
		return err
	}
	rt.cpMu.Lock()
	for _, t := range r.lost {
		rt.skipByTask[t], rt.cpSeq[t] = 0, 0
		delete(rt.cpFramesByTask, t)
	}
	rt.cpMu.Unlock()
	var deadPaths, survivorPaths []string
	var reinjected []string
	if r.reload != nil {
		reinjected = r.reload[dead]
	}
	for _, ch := range chunks {
		if lost(ch.task) {
			rt.foldChunk(ch)
		}
		if lost(ch.task) || slices.Contains(reinjected, ch.path) {
			deadPaths = append(deadPaths, ch.path)
		} else {
			survivorPaths = append(survivorPaths, ch.path)
		}
	}
	r.reloadOwed[dead] = false
	r.replayed = len(chunks)
	r.replies[dead] = 2
	r.send(dead, ctrlMsg{Type: "replay", Round: r.r, Paths: deadPaths, ReplayOwner: -1})
	r.send(dead, ctrlMsg{Type: "replay", Round: r.r, Paths: survivorPaths, ReplayOwner: dead})
	return nil
}

// resume queues the lost tasks for the replacement once it has replayed.
func (r *round) resume() {
	rt, dead := r.rt, r.down
	rt.cpMu.Lock()
	for _, t := range r.lost {
		rt.res.OTaskSent[t] = rt.skipByTask[t] // the committed base
		r.prefProc[t] = dead
		r.oState[t] = taskPending
		r.oPending = append(r.oPending, t)
	}
	rt.cpMu.Unlock()
	rt.ctrs.partialRestarts.Add(1)
	r.job.Trace.Rank(r.job.Procs).Span(tidControl, "restart.partial", "fault", r.restartAt,
		map[string]any{"rank": dead, "tasks": len(r.lost), "replayChunks": r.replayed})
	r.phase, r.down = running, -1
	r.dispatchO()
	r.maybeEndO()
}

// overdue fails the run once the control replies the round's next step
// waits on have not moved for the deadline (none without an IOTimeout).
// A wait on task completions has no deadline.
func (r *round) overdue(now time.Time) error {
	var aw []string
	for p, n := range r.replies {
		if n > 0 {
			aw = append(aw, fmt.Sprintf("%d %s from worker %d", n, r.phase.reply(), p))
		}
	}
	for p, owed := range r.reloadOwed {
		if owed && (r.phase == reloading || r.phase == running && r.oDone == r.job.NumO) {
			aw = append(aw, fmt.Sprintf("reloadDone from worker %d", p))
		}
	}
	if w := strings.Join(aw, ", "); w != r.waitFor {
		r.waitFor, r.waitSince = w, now
	}
	if r.waitFor == "" || r.deadline <= 0 || now.Sub(r.waitSince) < r.deadline {
		return nil
	}
	last := make([]string, len(r.lastEvent))
	for p, at := range r.lastEvent {
		last[p] = fmt.Sprintf("worker %d %v ago", p, now.Sub(at).Round(time.Millisecond))
		if at.IsZero() {
			last[p] = fmt.Sprintf("worker %d none", p)
		}
	}
	return &RunError{Phase: r.phase.runPhase(), Rank: -1,
		Err: fmt.Errorf("core: %s: still awaiting %s after %v (last events: %s): %w",
			r.phase, r.waitFor, r.deadline, strings.Join(last, ", "), mpi.ErrTimeout)}
}

// reloadPlan scans a previous attempt's committed chunks into their
// tasks' checkpoint state and deals them round-robin to the processes for
// re-injection. It is nil without FaultTolerance or chunks.
func (rt *Runtime) reloadPlan() ([][]string, error) {
	j := rt.job
	if !j.Conf.FaultTolerance {
		return nil, nil
	}
	chunks, err := scanChunks(j.Conf.CheckpointDir, func(int) bool { return true }, j.Conf.PartialRestart)
	if err != nil || len(chunks) == 0 {
		return nil, err
	}
	plan := make([][]string, j.Procs)
	for i, ch := range chunks {
		rt.foldChunk(ch)
		plan[i%j.Procs] = append(plan[i%j.Procs], ch.path)
	}
	return plan, nil
}

// foldChunk adds a counted chunk to its task's checkpoint state: the
// records a re-run skips, the next chunk number, and the frame counts.
func (rt *Runtime) foldChunk(ch cpChunk) {
	rt.cpMu.Lock()
	defer rt.cpMu.Unlock()
	rt.skipByTask[ch.task] += ch.records
	rt.cpSeq[ch.task] = max(rt.cpSeq[ch.task], ch.seq+1)
	if len(ch.frames) > 0 && rt.cpFramesByTask[ch.task] == nil {
		rt.cpFramesByTask[ch.task] = map[int]int64{}
	}
	for p, n := range ch.frames {
		rt.cpFramesByTask[ch.task][p] += n
	}
}

// localityPrefs derives each O task's preferred process from its input
// splits (the same rank-round-robin mapping the load utility uses).
func (rt *Runtime) localityPrefs() []int {
	j := rt.job
	pref := fillInt(j.NumO, -1)
	procByHost := map[int]int{}
	for p := j.Procs - 1; p >= 0; p-- {
		procByHost[j.HostOfProc(p)] = p
	}
	for t := 0; t < j.NumO && len(j.Input) > 0; t++ {
		for _, s := range hdfs.SplitsForRank(j.Input, t, j.NumO) {
			if len(s.Block.Hosts) == 0 {
				continue
			}
			if p, ok := procByHost[s.Block.Hosts[0]]; ok {
				pref[t] = p
				break
			}
		}
	}
	return pref
}
