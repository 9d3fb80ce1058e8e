package launch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datampi/internal/core"
	"datampi/internal/mpi"
)

// bootstrapTimeout bounds the rendezvous handshake on both sides.
const bootstrapTimeout = 30 * time.Second

// termGrace is how long Shutdown waits for workers to exit after their
// stdin closes before SIGKILLing them.
const termGrace = 5 * time.Second

// ClusterConfig describes one launch attempt's worker fleet.
type ClusterConfig struct {
	Procs int
	// Exe is the worker binary; empty means re-execute this binary
	// (os.Executable). Args are passed verbatim.
	Exe  string
	Args []string
	// ExtraEnv entries ("KEY=value") ride on top of the spawn protocol
	// variables; the spec-based entry points use it for DATAMPI_SPEC.
	ExtraEnv []string
	Attempt  int
	// IOTimeout is forwarded to every world (send deadlines + the
	// master's dead-worker sweep interval). <= 0 disables deadlines —
	// strongly discouraged across processes.
	IOTimeout time.Duration
	// Output receives the workers' relayed stdout/stderr, each line
	// prefixed "[w<rank>] ". Defaults to os.Stderr.
	Output io.Writer
	// Engine is the progress-engine configuration of the master's world,
	// shipped to every worker in EnvEngine so the whole fleet runs one
	// engine (core.Engine derives it from a job's Config).
	Engine mpi.Engine
	// ShmOff disables the same-host shared-memory transport for the whole
	// fleet; every pair stays on TCP. Default (false) lets the launcher
	// create a segment directory and the ranks select shm per pair.
	ShmOff bool
	// ShmDir overrides the parent directory the segment directory is
	// created under (default mpi.ShmBaseDir(): /dev/shm when present).
	// Tests point it at a temp dir to check the lifecycle.
	ShmDir string

	// shmDir is the created segment directory for this attempt, set by
	// StartCluster and removed again on Shutdown/killAll. Unexported:
	// callers configure ShmOff/ShmDir, not the directory itself.
	shmDir string
}

// spawnEnv assembles one worker's spawn-protocol environment on top of
// the launcher's own. Shared by StartCluster and Respawn so a respawned
// rank always rejoins with the fleet's exact configuration.
// shm selects whether this worker gets the segment directory: true for
// the initial fleet, false for Respawn replacements — a ring still holds
// the dead incarnation's cursors and residue, so a replacement must
// advertise plain TCP and let every pair involving it fall back.
func (cfg *ClusterConfig) spawnEnv(rank, attempt int, rvAddr string, shm bool) []string {
	env := append(os.Environ(),
		fmt.Sprintf("%s=%d", EnvWorkerRank, rank),
		fmt.Sprintf("%s=%d", EnvProcs, cfg.Procs),
		fmt.Sprintf("%s=%s", EnvRendezvous, rvAddr),
		fmt.Sprintf("%s=%d", EnvAttempt, attempt),
		fmt.Sprintf("%s=%d", EnvIOTimeout, cfg.IOTimeout.Milliseconds()),
	)
	if shm && cfg.shmDir != "" {
		env = append(env, EnvShmDir+"="+cfg.shmDir)
	}
	if cfg.Engine != (mpi.Engine{}) {
		js, _ := json.Marshal(cfg.Engine) // only numbers: cannot fail
		env = append(env, EnvEngine+"="+string(js))
	}
	return append(env, cfg.ExtraEnv...)
}

// worldOptions are the mpi options for the master's own world, matching
// what spawnEnv ships to the workers.
func (cfg *ClusterConfig) worldOptions() []mpi.Option {
	wopts := []mpi.Option{mpi.WithEngine(cfg.Engine)}
	if cfg.IOTimeout > 0 {
		wopts = append(wopts, mpi.WithSendTimeout(cfg.IOTimeout))
	}
	if cfg.shmDir != "" {
		wopts = append(wopts, mpi.WithShmSegments(cfg.shmDir))
	}
	return wopts
}

// setupShmDir creates one attempt's segment directory: a fresh
// datampi-shm-<pid>-* under parent (default mpi.ShmBaseDir(); see
// mpi.NewShmDir) holding the nonce file and the sparse ring matrix for
// procs workers plus the launcher.
func setupShmDir(parent string, ranks int) (string, error) {
	if parent == "" {
		parent = mpi.ShmBaseDir()
	}
	dir, err := mpi.NewShmDir(parent)
	if err != nil {
		return "", err
	}
	if err := mpi.CreateShmSegments(dir, ranks, 0); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// WorkerExit records how one worker process ended.
type WorkerExit struct {
	Rank   int
	Err    error // nil for exit status 0
	Killed bool  // true if Shutdown had to SIGKILL it
}

// Cluster is a running worker fleet plus the launcher's joined world:
// the launcher is world rank Procs, the workers ranks 0..Procs-1. The
// launcher watches every child; a worker that dies is declared dead on
// the world so the master's event sweep converts it into ErrRankDead
// instead of hanging.
type Cluster struct {
	cfg   ClusterConfig
	world *mpi.World

	cmds    []*exec.Cmd
	stdins  []io.WriteCloser
	relayWG sync.WaitGroup
	waitWG  sync.WaitGroup

	// addrs is the joined directory (worker transport addrs plus the
	// launcher's, index Procs), kept so Respawn can hand a replacement
	// worker a patched copy. gen numbers respawned incarnations, and
	// spawns[r] counts rank r's (so Shutdown can tell a respawned rank's
	// live process from its dead predecessor's exit record).
	addrs  []string
	gen    atomic.Int64
	spawns []int

	closing atomic.Bool
	mu      sync.Mutex
	exits   []WorkerExit
}

// StartCluster spawns cfg.Procs worker processes, completes the
// rendezvous, and joins the distributed world as the master rank.
// On error, everything already spawned is torn down.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("launch: need Procs > 0, got %d", cfg.Procs)
	}
	exe := cfg.Exe
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return nil, fmt.Errorf("launch: cannot locate worker binary: %w", err)
		}
	}
	if cfg.Output == nil {
		cfg.Output = os.Stderr
	}
	// Same-host fast path: lay out the shared-memory segment directory
	// before spawning so every rank (workers + launcher) can map the same
	// rings. Failure is non-fatal — the fleet silently stays on TCP.
	if !cfg.ShmOff {
		if dir, err := setupShmDir(cfg.ShmDir, cfg.Procs+1); err != nil {
			fmt.Fprintf(cfg.Output, "[launcher] shm transport unavailable, using TCP: %v\n", err)
		} else {
			cfg.shmDir = dir
		}
	}
	rv, err := mpi.NewRendezvous(cfg.Procs, bootstrapTimeout)
	if err != nil {
		removeShmDir(cfg.shmDir)
		return nil, err
	}
	ep, err := mpi.ListenEndpoint()
	if err != nil {
		rv.Close()
		removeShmDir(cfg.shmDir)
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	for r := 0; r < cfg.Procs; r++ {
		cmd := exec.Command(exe, cfg.Args...)
		cmd.Env = cfg.spawnEnv(r, cfg.Attempt, rv.Addr(), true)
		stdin, err := cmd.StdinPipe()
		if err == nil {
			var stdout, stderrp io.ReadCloser
			if stdout, err = cmd.StdoutPipe(); err == nil {
				stderrp, err = cmd.StderrPipe()
			}
			if err == nil {
				err = cmd.Start()
			}
			if err == nil {
				c.cmds = append(c.cmds, cmd)
				c.stdins = append(c.stdins, stdin)
				c.relay(r, stdout)
				c.relay(r, stderrp)
			}
		}
		if err != nil {
			c.killAll()
			rv.Close()
			ep.Close()
			return nil, fmt.Errorf("launch: spawning worker %d: %w", r, err)
		}
	}
	// The launcher's own directory entry carries the shm host identity
	// too: master<->worker pairs ride the rings just like worker pairs.
	selfAddr := ep.Addr()
	if cfg.shmDir != "" {
		if hid, err := mpi.ShmHostID(cfg.shmDir); err == nil {
			selfAddr = mpi.ShmAddr(selfAddr, hid)
		}
	}
	addrs, err := rv.Wait(selfAddr)
	rv.Close()
	if err != nil {
		c.killAll()
		ep.Close()
		return nil, err
	}
	world, err := mpi.JoinWorld(cfg.Procs+1, cfg.Procs, ep, addrs, cfg.worldOptions()...)
	if err != nil {
		c.killAll()
		ep.Close()
		return nil, err
	}
	c.world = world
	c.addrs = append([]string(nil), addrs...)
	c.spawns = make([]int, cfg.Procs)
	for i := range c.spawns {
		c.spawns[i] = 1
	}
	for r, cmd := range c.cmds {
		c.waitWG.Add(1)
		go c.watch(r, cmd)
	}
	return c, nil
}

// World is the launcher's joined world (rank Procs); pass it to
// core.RunContext via core.WithWorld.
func (c *Cluster) World() *mpi.World { return c.world }

// relay copies one worker output stream to cfg.Output line-by-line with
// a "[w<rank>] " prefix, so interleaved worker output stays attributable.
func (c *Cluster) relay(rank int, r io.Reader) {
	c.relayWG.Add(1)
	go func() {
		defer c.relayWG.Done()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			fmt.Fprintf(c.cfg.Output, "[w%d] %s\n", rank, sc.Bytes())
		}
	}()
}

// watch reaps one child. An abnormal exit while the run is live is a
// worker death: declare the rank dead so the master's IOTimeout sweep
// turns the silence into a typed ErrRankDead.
func (c *Cluster) watch(rank int, cmd *exec.Cmd) {
	defer c.waitWG.Done()
	err := cmd.Wait()
	c.mu.Lock()
	c.exits = append(c.exits, WorkerExit{Rank: rank, Err: err})
	c.mu.Unlock()
	if err != nil && !c.closing.Load() {
		fmt.Fprintf(c.cfg.Output, "[launcher] worker %d exited: %v\n", rank, err)
		c.world.DeclareDead(rank)
	}
	// A worker that finished RunWorker removed its blob directories; a
	// killed one could not.
	dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), core.BlobDirs(cmd.Process.Pid)))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// Respawn starts a replacement OS process for a dead worker rank and
// completes a one-worker re-rendezvous with it, returning the
// replacement's transport address. It is the launcher half of a partial
// restart (core.WithRespawn): survivors keep running; only the named
// rank gets a fresh process. The replacement's attempt number is bumped
// past 0 so attempt-0-armed chaos failpoints stay disarmed.
func (c *Cluster) Respawn(rank int) (string, error) {
	if rank < 0 || rank >= c.cfg.Procs {
		return "", fmt.Errorf("launch: respawn rank %d out of range", rank)
	}
	exe := c.cfg.Exe
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return "", fmt.Errorf("launch: cannot locate worker binary: %w", err)
		}
	}
	rv, err := mpi.NewRendezvous(1, bootstrapTimeout)
	if err != nil {
		return "", err
	}
	attempt := c.cfg.Attempt + int(c.gen.Add(1))
	cmd := exec.Command(exe, c.cfg.Args...)
	// shm=false: the replacement advertises plain TCP. Its rings still
	// hold the dead incarnation's state, so every pair involving this
	// rank is demoted to TCP (transport.replaceRank retires them).
	cmd.Env = c.cfg.spawnEnv(rank, attempt, rv.Addr(), false)
	stdin, err := cmd.StdinPipe()
	var stdout, stderrp io.ReadCloser
	if err == nil {
		if stdout, err = cmd.StdoutPipe(); err == nil {
			stderrp, err = cmd.StderrPipe()
		}
	}
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		rv.Close()
		return "", fmt.Errorf("launch: respawning worker %d: %w", rank, err)
	}
	c.relay(rank, stdout)
	c.relay(rank, stderrp)
	addr, err := rv.WaitOne(rank, func(newAddr string) []string {
		c.mu.Lock()
		dir := append([]string(nil), c.addrs...)
		c.mu.Unlock()
		dir[rank] = newAddr
		return dir
	})
	rv.Close()
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return "", err
	}
	c.mu.Lock()
	c.addrs[rank] = addr
	c.cmds[rank] = cmd
	c.stdins[rank] = stdin
	c.spawns[rank]++
	c.mu.Unlock()
	c.waitWG.Add(1)
	go c.watch(rank, cmd)
	fmt.Fprintf(c.cfg.Output, "[launcher] respawned worker %d (attempt %d) at %s\n", rank, attempt, addr)
	return addr, nil
}

// removeShmDir unlinks one attempt's segment directory. mmap-ed rings in
// still-live processes keep their pages until those processes unmap or
// exit; unlinking here guarantees nothing persists under /dev/shm after
// the fleet is gone, whichever way it went down.
func removeShmDir(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// killAll SIGKILLs every spawned child (bootstrap-failure path).
func (c *Cluster) killAll() {
	for _, cmd := range c.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	for _, cmd := range c.cmds {
		cmd.Wait()
	}
	c.relayWG.Wait()
	removeShmDir(c.cfg.shmDir)
}

// Shutdown ends the attempt: closes the world, closes every worker's
// stdin (their watchdog closes their world, so RunWorker returns through
// its cleanup and the process exits), SIGKILLs any that outlive the grace
// period, and returns how each worker ended.
func (c *Cluster) Shutdown() []WorkerExit {
	c.closing.Store(true)
	c.world.Close()
	for _, in := range c.stdins {
		in.Close()
	}
	done := make(chan struct{})
	go func() { c.waitWG.Wait(); close(done) }()
	killed := map[int]bool{}
	select {
	case <-done:
	case <-time.After(termGrace):
		c.mu.Lock()
		exited := make(map[int]int, len(c.exits))
		for _, e := range c.exits {
			exited[e.Rank]++
		}
		cmds := append([]*exec.Cmd(nil), c.cmds...)
		c.mu.Unlock()
		for r, cmd := range cmds {
			if exited[r] < c.spawns[r] && cmd.Process != nil {
				cmd.Process.Kill()
				killed[r] = true
			}
		}
		<-done
	}
	c.relayWG.Wait()
	removeShmDir(c.cfg.shmDir)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]WorkerExit(nil), c.exits...)
	for i := range out {
		if killed[out[i].Rank] {
			out[i].Killed = true
		}
	}
	return out
}

// workerDied reports whether err should trigger a fault-tolerant
// relaunch. A worker-process death reaches the master either as
// ErrRankDead (the launcher declared the rank dead and the event sweep
// noticed) or as a peer's send deadline expiring against the dead
// process's sockets — whichever loses the race still means the same
// thing. Deterministic failures (bad spec, task errors) carry neither
// type and are not retried.
func workerDied(err error) bool {
	return errors.Is(err, mpi.ErrRankDead) || errors.Is(err, mpi.ErrTimeout)
}

// sigkillSelf is the chaos-test failpoint: die exactly as an OOM-killed
// or crashed worker would, with no deferred cleanup.
func sigkillSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL is not deliverable to ourselves twice
}
