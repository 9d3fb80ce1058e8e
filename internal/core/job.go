package core

import (
	"errors"
	"fmt"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/hdfs"
	"datampi/internal/metrics"
	"datampi/internal/trace"
)

// TaskFunc is the body of an O or A task. It is invoked with the task's
// Context; in Iteration mode it is invoked once per round.
type TaskFunc func(ctx *Context) error

// Job describes one bipartite application, the unit that mpidrun launches:
//
//	mpidrun -f hostfile -O n -A m -M mode -jar jarname classname params
//
// NumO / NumA are the -O / -A counts, Mode is -M, and the task functions
// stand in for the application classes (which are resident in the worker
// processes, as JVM classes are in the paper's implementation).
type Job struct {
	Name string
	Mode Mode
	Conf Config

	// NumO and NumA are the task counts of the two communicators.
	NumO, NumA int

	// Procs is the number of DataMPI worker processes mpidrun spawns;
	// Slots is how many tasks may run concurrently on one process (the
	// paper's "concurrent O/A tasks per node"). Defaults: NumO and 1.
	Procs, Slots int

	// OTask runs as each task of COMM_BIPARTITE_O; ATask as each task of
	// COMM_BIPARTITE_A. In Common mode they are two halves of an SPMD
	// program; in MapReduce mode, map and reduce.
	OTask TaskFunc
	ATask TaskFunc

	// Rounds is the number of Iteration-mode rounds (default 1).
	Rounds int

	// KeepGoing, if set, is consulted after each completed Iteration round
	// (with the 0-based round index); returning false stops the job early —
	// convergence-driven termination, as Twister-style iterative
	// applications need. It runs on the mpidrun master.
	KeepGoing func(completedRound int) bool

	// Input optionally describes the HDFS splits the O tasks will read,
	// enabling mpidrun's data-centric O-task placement. Splits are mapped
	// to tasks rank-round-robin (hdfs.SplitsForRank), matching the load
	// utility the tasks themselves use.
	Input []hdfs.Split
	// HostOfProc maps a process index to its datanode index for locality
	// decisions; nil means proc i is on datanode i.
	HostOfProc func(proc int) int

	// SpillDisks provides a per-process disk for spill-over and
	// checkpoints; nil disables spilling (unlimited memory cache).
	SpillDisks []*diskio.Disk

	// Instrumentation (optional).
	Busy     *metrics.BusyTracker
	Mem      *metrics.Gauge
	Progress *metrics.PhaseProgress
	// Trace records structured span events (task execution, SPL seals,
	// shuffle transmits, RPL merges, spills, checkpoint commits, fault
	// retries) for chrome://tracing. nil disables tracing at the cost of
	// one pointer check per event site.
	Trace *trace.Tracer

	// hooks are test instruments (see Hooks); zero in every program.
	hooks Hooks
}

// validate fills defaults and checks the job description.
func (j *Job) validate() error {
	if j.NumO <= 0 || j.NumA <= 0 {
		return fmt.Errorf("core: job needs NumO>0 and NumA>0, got %d/%d", j.NumO, j.NumA)
	}
	if j.OTask == nil || j.ATask == nil {
		return errors.New("core: job needs both OTask and ATask")
	}
	if j.Procs <= 0 {
		j.Procs = j.NumO
	}
	if j.Slots <= 0 {
		j.Slots = 1
	}
	if j.Rounds <= 0 {
		j.Rounds = 1
	}
	if j.Mode != Iteration && j.Rounds != 1 {
		return fmt.Errorf("core: Rounds=%d requires Iteration mode", j.Rounds)
	}
	if j.Mode == Streaming && j.NumA > j.Procs*j.Slots {
		return fmt.Errorf("core: Streaming needs NumA (%d) <= Procs*Slots (%d)", j.NumA, j.Procs*j.Slots)
	}
	if j.Mode == Streaming && j.Conf.DataCentricOff {
		return errors.New("core: Streaming requires data-centric scheduling")
	}
	if j.HostOfProc == nil {
		j.HostOfProc = func(p int) int { return p }
	}
	if j.SpillDisks != nil && len(j.SpillDisks) < j.Procs {
		return fmt.Errorf("core: %d spill disks for %d procs", len(j.SpillDisks), j.Procs)
	}
	if j.Conf.MemCacheBytes > 0 && j.SpillDisks == nil {
		return errors.New("core: MemCacheBytes requires SpillDisks to spill to")
	}
	if j.hooks.faulty() && j.Conf.IOTimeout <= 0 {
		j.Conf.IOTimeout = 2 * time.Second
	}
	return j.Conf.Normalize(j.Mode)
}
