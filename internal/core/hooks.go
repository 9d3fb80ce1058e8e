package core

import (
	"runtime"

	"datampi/internal/fault"
)

// Hooks are a job's test instruments: injected faults and failpoints that
// crash a run at a controlled point, and the pool widths, spill fan-in and
// credit window a test may pin away from the runtime's choice. No program
// sets them, so they live beside the job rather than in its Config; the
// zero value runs the job as configured. Tests in this package set
// Job.hooks directly; other packages install Hooks with SetHooks.
type Hooks struct {
	// FaultPlan, when non-nil, runs the job's entire MPI traffic (data
	// plane and mpidrun control plane) under the deterministic
	// fault-injection transport: message drops, delays, duplication,
	// reordering, connection resets, and rank deaths are injected exactly
	// as the plan's seed and rules dictate (see internal/fault). Rank
	// death surfaces as ErrRankDead and aborts the job cleanly, so a
	// FaultTolerance-enabled rerun can recover from the checkpoints.
	// In-process runs only.
	FaultPlan *fault.Plan

	// FaultInjector, when non-nil, overrides FaultPlan with a
	// caller-managed injector, letting tests kill ranks cooperatively at
	// chosen points mid-run.
	FaultInjector *fault.Injector

	// InjectFailAfterRecords, when > 0, aborts the whole job with
	// ErrInjectedFailure once that many records have been sent in total —
	// the paper's "kill the job intentionally" fault-tolerance experiment.
	// How much of that data was already durably checkpointed at the crash
	// is timing-dependent, as with a real kill.
	InjectFailAfterRecords int64

	// CheckpointCommitHook, when non-nil, runs inside every chunk commit
	// between the tmp file's final write and the atomic rename — the
	// torn-commit window. Returning an error aborts the commit, leaving
	// the .tmp file on disk exactly as a crash at that instant would.
	CheckpointCommitHook func(task, seq int) error

	// Sizes a test pins; zero keeps the runtime's value.
	prepareWorkers    int // O-side prepare pool (§IV-C); GOMAXPROCS
	mergeWorkers      int // A-side merge pool (§IV-C); GOMAXPROCS
	spillCompactFanIn int // disk runs per background compaction; 8
	creditWindow      int // streaming credits per process pair; 4096
}

// SetHooks installs test instruments on a job.
func SetHooks(j *Job, h Hooks) { j.hooks = h }

// faulty reports whether the job runs under injected transport faults.
func (h *Hooks) faulty() bool { return h.FaultPlan != nil || h.FaultInjector != nil }

// injector returns the fault injector the job's transport runs under, or
// nil for a fault-free run.
func (h *Hooks) injector() *fault.Injector {
	if h.FaultInjector != nil || h.FaultPlan == nil {
		return h.FaultInjector
	}
	return fault.NewInjector(h.FaultPlan)
}

// The runtime's sizes: the prepare and merge pool widths, how many disk
// runs a partition accumulates before a background compaction k-way
// merges them into one (bounding the final NextGroup merge's fan-in and
// open files), and how many Streaming records may be in flight per
// directed (sender process, receiver process) pair.
func (h *Hooks) prepareWidth() int    { return orDefault(h.prepareWorkers, runtime.GOMAXPROCS(0)) }
func (h *Hooks) mergeWidth() int      { return orDefault(h.mergeWorkers, runtime.GOMAXPROCS(0)) }
func (h *Hooks) compactFanIn() int    { return orDefault(h.spillCompactFanIn, 8) }
func (h *Hooks) streamCredits() int64 { return int64(orDefault(h.creditWindow, 4096)) }

func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}
