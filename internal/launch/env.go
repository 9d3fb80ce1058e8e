// Package launch makes mpidrun a real launcher (§IV-B): it spawns one
// worker OS process per rank by re-executing the current binary, brings
// the cluster up over a TCP rendezvous, and runs the job cross-process
// over the existing MPI transport — the master scheduling exactly as it
// does in-process, each worker hosting one DataMPI process.
//
// The spawn protocol is environment-based so any binary can serve as the
// worker image: the launcher re-executes itself with DATAMPI_WORKER_RANK
// set, and the program's entry point routes to the worker loop before
// doing anything else (datampi.RunWorkerIfSpawned, or RunSpawnedWorker
// for the built-in mpidrun applications).
package launch

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"datampi/internal/mpi"
)

// Environment variables carrying the spawn protocol from launcher to
// worker. DATAMPI_SPEC is only set by the spec-based entry points.
const (
	EnvWorkerRank = "DATAMPI_WORKER_RANK"
	EnvProcs      = "DATAMPI_PROCS"
	EnvRendezvous = "DATAMPI_RENDEZVOUS"
	EnvAttempt    = "DATAMPI_ATTEMPT"
	EnvIOTimeout  = "DATAMPI_IOTIMEOUT_MS"
	EnvSpec       = "DATAMPI_SPEC"
	// EnvEngine carries the master's progress-engine configuration
	// (mpi.Engine) as JSON, so every worker world batches, drains and
	// chunks exactly as the master's does. Unset means engine defaults.
	EnvEngine = "DATAMPI_ENGINE"
	// EnvShmDir is the launcher's shared-memory segment directory. A
	// worker that can read its nonce advertises the derived host identity
	// alongside its TCP address and maps the rings; unset (or unreadable)
	// means this worker pairs over TCP only. Respawn replacements never
	// receive it — their rings hold a dead incarnation's state.
	EnvShmDir = "DATAMPI_SHM_DIR"
)

// orphanExit is the exit code of a worker that did not finish on its own
// within termGrace of its launcher closing stdin (see JoinAsWorker).
const orphanExit = 3

// IsSpawnedWorker reports whether this process was spawned as a DataMPI
// worker by a launcher. Programs must check it (via RunSpawnedWorker or
// datampi.RunWorkerIfSpawned) before flag parsing or any other work.
func IsSpawnedWorker() bool { return os.Getenv(EnvWorkerRank) != "" }

// Worker is a spawned worker process's view of the cluster after the
// rendezvous: its joined world plus the launch parameters.
type Worker struct {
	World     *mpi.World
	Rank      int
	Procs     int
	Attempt   int
	IOTimeout time.Duration
}

// JoinAsWorker completes a spawned worker's side of the bootstrap: it
// starts the orphan watchdog, opens this process's transport endpoint,
// registers with the launcher's rendezvous, and joins the distributed
// world. Call only when IsSpawnedWorker() is true.
func JoinAsWorker() (*Worker, error) {
	rank, err := envInt(EnvWorkerRank, -1)
	if err != nil {
		return nil, err
	}
	procs, err := envInt(EnvProcs, -1)
	if err != nil {
		return nil, err
	}
	if rank < 0 || procs <= 0 || rank >= procs {
		return nil, fmt.Errorf("launch: bad worker env rank=%d procs=%d", rank, procs)
	}
	rvAddr := os.Getenv(EnvRendezvous)
	if rvAddr == "" {
		return nil, fmt.Errorf("launch: %s not set", EnvRendezvous)
	}
	attempt, _ := envInt(EnvAttempt, 0)
	ioms, _ := envInt(EnvIOTimeout, 0)
	ioTimeout := time.Duration(ioms) * time.Millisecond
	eng, err := engineFromEnv()
	if err != nil {
		return nil, err
	}

	// The launcher's end of our stdin pipe closes when it shuts the fleet
	// down or dies. Close the world then rather than exit on the spot: the
	// worker loop returns, and RunWorker finishes its cleanup (a worker
	// that already said bye is in the middle of it) before the process
	// exits. A worker still bootstrapping, or one whose cleanup wedges,
	// exits after termGrace instead of lingering as an orphan holding
	// ports and checkpoint files.
	var joined atomic.Pointer[mpi.World]
	go func() {
		io.Copy(io.Discard, os.Stdin)
		if w := joined.Load(); w != nil {
			w.Close()
			time.Sleep(termGrace)
		}
		os.Exit(orphanExit)
	}()

	ep, err := mpi.ListenEndpoint()
	if err != nil {
		return nil, err
	}
	// Advertise the shm host identity alongside the TCP address when the
	// launcher shipped a segment directory we can actually read; peers
	// that derive the same identity select the ring transport for this
	// pair at connection time, everyone else dials TCP.
	selfAddr := ep.Addr()
	var wopts []mpi.Option
	if shmDir := os.Getenv(EnvShmDir); shmDir != "" {
		if hid, err := mpi.ShmHostID(shmDir); err == nil {
			selfAddr = mpi.ShmAddr(selfAddr, hid)
			wopts = append(wopts, mpi.WithShmSegments(shmDir))
		}
	}
	dir, err := mpi.JoinRendezvous(rvAddr, rank, selfAddr, bootstrapTimeout)
	if err != nil {
		ep.Close()
		return nil, err
	}
	if ioTimeout > 0 {
		wopts = append(wopts, mpi.WithSendTimeout(ioTimeout))
	}
	wopts = append(wopts, mpi.WithEngine(eng))
	world, err := mpi.JoinWorld(procs+1, rank, ep, dir, wopts...)
	if err != nil {
		ep.Close()
		return nil, err
	}
	joined.Store(world)
	return &Worker{World: world, Rank: rank, Procs: procs,
		Attempt: attempt, IOTimeout: ioTimeout}, nil
}

// engineFromEnv decodes the master's progress-engine configuration from
// EnvEngine; unset selects the engine defaults.
func engineFromEnv() (mpi.Engine, error) {
	var eng mpi.Engine
	if v := os.Getenv(EnvEngine); v != "" {
		if err := json.Unmarshal([]byte(v), &eng); err != nil {
			return eng, fmt.Errorf("launch: bad %s=%q: %w", EnvEngine, v, err)
		}
	}
	return eng, nil
}

func envInt(key string, def int) (int, error) {
	s := os.Getenv(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return def, fmt.Errorf("launch: bad %s=%q: %w", key, s, err)
	}
	return v, nil
}
