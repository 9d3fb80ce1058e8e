package core

// Distributed (multi-OS-process) runs. A true mpidrun launch (§IV-B)
// spawns one worker process per rank; each side joins the same
// mpi.JoinWorld directory and then performs an identical communicator
// construction sequence, so comm ids line up across processes without
// any negotiation:
//
//	launcher process            worker process (rank r)
//	JoinWorld(n+1, n, ...)      JoinWorld(n+1, r, ...)
//	RunContext(WithWorld(w))    RunWorker(job, w, r)
//
// The master runs exactly the in-process scheduler; only setup differs
// (no local worker loops). A worker runs exactly the in-process worker
// loop; only what the control messages must carry differs (checkpoint
// seq seeds, the O-task assignment table, and a fat final bye with the
// worker's counters and trace buffer).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"datampi/internal/mpi"
	"datampi/internal/trace"
)

// RunWorker runs one spawned worker process's half of a distributed job:
// it hosts the single DataMPI process of world rank `rank`, executes the
// master's commands until shutdown, and reports its counters and trace
// on the final bye. The job must be constructed identically to the
// master's (same geometry and mode; task functions live here).
// attempt is the launcher's attempt number, stamped on the rank's trace
// row. It returns nil after a clean shutdown handshake.
func RunWorker(job *Job, world *mpi.World, rank, attempt int) error {
	if err := job.validate(); err != nil {
		return &RunError{Phase: "validate", Rank: rank, Err: err}
	}
	if world == nil || world.Size() != job.Procs+1 {
		return &RunError{Phase: "validate", Rank: rank,
			Err: errors.New("core: worker world must have Procs+1 ranks")}
	}
	if rank < 0 || rank >= job.Procs {
		return &RunError{Phase: "validate", Rank: rank,
			Err: fmt.Errorf("core: worker rank %d out of range [0,%d)", rank, job.Procs)}
	}
	rt := newRuntime(job)
	rt.distWorker = true
	defer rt.abortCancel()
	rt.world = world
	rt.ctrs = newRuntimeCounters(job.Procs)
	workerRanks := seq(job.Procs)
	comms, err := world.NewComm(workerRanks)
	if err != nil {
		return &RunError{Phase: "setup", Rank: rank, Err: err}
	}
	ics, err := mpi.NewIntercomm(world, []int{job.Procs}, workerRanks)
	if err != nil {
		return &RunError{Phase: "setup", Rank: rank, Err: err}
	}
	rt.workerICs = ics[:job.Procs]
	rt.assignO = fillInt(job.NumO, -1)
	p := newProcess(rt, rank, comms[rank])
	rt.procs = []*process{p}
	// Stamp the hosting OS process on this rank's trace row: the merged
	// trace then proves which ranks kept their process across a partial
	// restart (same pid, attempt 0) and which were respawned (attempt >0).
	if tb := job.Trace.Rank(rank); tb != nil {
		tb.Instant(tidControl, "proc.start", "control",
			map[string]any{"pid": os.Getpid(), "attempt": attempt})
	}
	rt.workerLoop(p)
	ferr := rt.err() // recorded failure, nil after a clean bye
	world.Close()
	rt.fail(errors.New("core: worker shut down")) // wake any stragglers
	p.quiesce()
	if job.SpillDisks != nil && rank < len(job.SpillDisks) {
		_ = job.SpillDisks[rank].RemoveAll(fmt.Sprintf("dmpi-spill/run%d", rt.id))
	}
	if ferr != nil {
		return &RunError{Phase: "run", Rank: rank, Err: ferr}
	}
	return nil
}

// setAssignO replaces the O-task→process table with the master's
// snapshot (carried on a runA in distributed runs).
func (rt *Runtime) setAssignO(assign []int) {
	rt.assignMu.Lock()
	defer rt.assignMu.Unlock()
	copy(rt.assignO, assign)
}

// byeEvent builds a worker's final event. A distributed worker's bye
// carries everything the master cannot observe in-process: the runtime
// counters, data-volume tallies, and the serialized trace buffer.
func (rt *Runtime) byeEvent(p *process) eventMsg {
	ev := eventMsg{Type: "bye", Proc: p.idx}
	if !rt.distWorker {
		return ev
	}
	ev.RuntimeCounters = rt.ctrs.snapshot(rt.world.Stats())
	// Every task has reported done by now, and runUser added its sends
	// to rt.sent before that report: the total is complete.
	ev.RecordsSent = rt.sent.Load()
	ev.BytesShuffled = rt.bytesShuffled.Load()
	ev.SpilledBytes = rt.spilledBytes.Load()
	if tr := rt.job.Trace; tr.Enabled() {
		if b, err := json.Marshal(tr.Events()); err == nil {
			ev.Trace = b
			ev.TraceStart = tr.StartUnixMicros()
		}
	}
	return ev
}

// absorbBye folds a distributed worker's final report into the master's
// result: counters fold (see foldCounters), volume tallies add, and the
// worker's trace events merge onto the master's clock so one Chrome trace
// shows every OS process.
func (rt *Runtime) absorbBye(ev eventMsg) {
	if !rt.distMaster {
		return
	}
	rt.sent.Add(ev.RecordsSent)
	rt.bytesShuffled.Add(ev.BytesShuffled)
	rt.spilledBytes.Add(ev.SpilledBytes)
	foldCounters(rt.distCtrs, ev.RuntimeCounters)
	if tr := rt.job.Trace; tr.Enabled() && len(ev.Trace) > 0 {
		var evs []trace.Event
		if err := json.Unmarshal(ev.Trace, &evs); err == nil {
			tr.Inject(evs, ev.TraceStart-tr.StartUnixMicros())
		}
	}
}

// foldCounters adds src's counters into dst, except high-water marks,
// which take the larger value: a maximum over workers is still a maximum.
func foldCounters(dst, src map[string]int64) {
	for k, v := range src {
		if k == "stream.credits.max.outstanding" {
			dst[k] = max(dst[k], v)
		} else {
			dst[k] += v
		}
	}
}
