package launch

import (
	"context"
	"fmt"
	"io"
	"os"

	"datampi/internal/core"
	"datampi/internal/trace"
)

// maxAttempts bounds fault-tolerant relaunches of a spec run: the first
// attempt plus up to two recoveries from worker-process death.
const maxAttempts = 3

// Options tunes Launch.
type Options struct {
	// Exe/Args override the worker image (default: re-execute this
	// binary with no arguments; the worker entry must route on
	// IsSpawnedWorker before flag parsing).
	Exe  string
	Args []string
	// Output receives prefixed worker output (default os.Stderr).
	Output io.Writer
	// Trace, when non-nil, collects the merged cross-process trace: the
	// master's spans plus every worker's, shifted onto the master clock.
	Trace *trace.Tracer
	// Ctx bounds the whole run (default context.Background()).
	Ctx context.Context
	// ShmDir overrides where the shared-memory segment directory is
	// created (default mpi.ShmBaseDir()). Tests use it to verify the
	// segment lifecycle; production runs leave it empty.
	ShmDir string
}

// Launch runs a built-in application spec across real worker OS
// processes: spawn, rendezvous, distributed run, and — when the spec has
// fault tolerance on and a worker process dies — a whole-attempt restart
// that recovers from the surviving checkpoints.
func Launch(spec *JobSpec, opt Options) (*core.Result, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if err := os.MkdirAll(spec.OutDir, 0o755); err != nil {
		return nil, err
	}
	specEnv, err := encodeSpec(spec)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, err := launchAttempt(spec, specEnv, opt, attempt)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !spec.FT || !workerDied(err) {
			return nil, err
		}
		if opt.Output != nil {
			fmt.Fprintf(opt.Output, "[launcher] attempt %d failed (%v); relaunching from checkpoints\n", attempt, err)
		}
	}
	return nil, fmt.Errorf("launch: giving up after %d attempts: %w", maxAttempts, lastErr)
}

func launchAttempt(spec *JobSpec, specEnv string, opt Options, attempt int) (*core.Result, error) {
	job := spec.BuildJob(-1, attempt, opt.Trace)
	cluster, err := StartCluster(ClusterConfig{
		Procs:     spec.Procs,
		Exe:       opt.Exe,
		Args:      opt.Args,
		ExtraEnv:  []string{EnvSpec + "=" + specEnv},
		Attempt:   attempt,
		IOTimeout: spec.IOTimeout(),
		Output:    opt.Output,
		Engine:    core.Engine(&job.Conf),
		ShmOff:    spec.ShmOff,
		ShmDir:    opt.ShmDir,
	})
	if err != nil {
		return nil, err
	}
	runOpts := []core.RunOption{core.WithWorld(cluster.World())}
	if spec.PartialRestart {
		runOpts = append(runOpts, core.WithRespawn(cluster.Respawn))
	}
	res, err := core.RunContext(opt.Ctx, job, runOpts...)
	cluster.Shutdown()
	return res, err
}

// RunSpawnedWorker is the worker-process entry for spec-based launches
// (mpidrun's built-in applications): join the cluster, rebuild the job
// from DATAMPI_SPEC, and serve this rank until the master shuts us down.
// Call only when IsSpawnedWorker() is true; the caller should os.Exit
// non-zero on error.
func RunSpawnedWorker() error {
	spec, err := decodeSpec(os.Getenv(EnvSpec))
	if err != nil {
		return err
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	w, err := JoinAsWorker()
	if err != nil {
		return err
	}
	// Workers always trace; the buffer rides back to the master on the
	// final bye and merges into the launcher's tracer if one is active.
	job := spec.BuildJob(w.Rank, w.Attempt, trace.New())
	return core.RunWorker(job, w.World, w.Rank, w.Attempt)
}
