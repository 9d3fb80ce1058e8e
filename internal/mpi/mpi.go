// Package mpi is a from-scratch MPI-like message-passing library in pure Go.
// It stands in for the native MPI (MVAPICH2) that DataMPI builds on in the
// paper, and carries only what DataMPI uses of it: communicators with
// ranks, tagged blocking point-to-point messaging with MPI matching
// semantics (FIFO per source/tag, ANY_SOURCE / ANY_TAG wildcards), simple
// intercommunicators, and interchangeable transports — in-memory
// channels, real TCP loopback sockets and shared-memory rings. Transfers
// can be charged to a netsim.Link so experiments can be run "on" 1GigE,
// 10GigE or InfiniBand.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/fault"
	"datampi/internal/netsim"
)

// Wildcards for Recv. User tags must be non-negative; negative tags are
// reserved for the library's own frames (chunk continuations, chunk.go).
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrClosed is returned by operations on a closed World.
var ErrClosed = errors.New("mpi: world closed")

// ErrRankDead reports that a peer (or the calling rank itself) has failed:
// the TCP transport returns it once its bounded retry/reconnect loop is
// exhausted, and the fault-injection layer returns it for ranks its plan
// has killed. Callers should treat it as a failure-detector verdict and
// escalate (e.g. trigger checkpoint restart) rather than retry.
var ErrRankDead = errors.New("mpi: rank dead")

// ErrTimeout reports that a deadline-bounded operation (RecvTimeout,
// RecvContext, or a transport send with a configured send timeout) expired
// before completing.
var ErrTimeout = errors.New("mpi: operation timed out")

// ErrFrameTooLarge reports a frame whose length header exceeds
// maxFrameSize — either a corrupt stream on the read side or an oversized
// payload on the write side.
var ErrFrameTooLarge = errors.New("mpi: frame exceeds size cap")

// Status describes a received message's envelope.
type Status struct {
	Source int // rank within the communicator
	Tag    int
}

// frame is the wire representation of one message.
type frame struct {
	comm    uint32
	srcRank int32 // rank in the communicator
	tag     int32
	seq     uint64 // per-(comm,srcRank,dst) stream position, assigned by TCP
	data    []byte
}

// World is a set of communicating processes ("ranks"). In this library an
// MPI process is goroutine-hosted: the caller runs rank i's code against
// World.Comm(i).
type World struct {
	size  int
	tr    transport
	procs []*proc
	local []bool // nil = every rank is hosted in this process (NewWorld)

	mu    sync.Mutex
	comms map[uint32][]*Comm // comm id -> per-world-rank comm
	// early holds frames that reached this process for a communicator it
	// has not built yet: in a distributed world another process may finish
	// its identical construction sequence and send first (a worker still
	// joining when the master dispatches, or a respawned rank).
	early   map[uint32][]earlyFrame
	nextID  uint32
	closed  bool
	closeWG sync.WaitGroup

	deadMu sync.Mutex
	dead   map[int]bool // world ranks marked dead by the fault layer

	// Chunked-transfer state (see chunk.go). chunkBytes comes from the
	// normalized engine config, so the split threshold always leaves a
	// chunk frame under the transport's frame cap.
	chunkBytes int
	chunkMsgID atomic.Uint64
	chunkMu    sync.Mutex
	chunkAsm   map[chunkKey]*chunkAsm

	chunkFramesSent atomic.Int64
	chunkFramesRecv atomic.Int64
	chunkMsgsSent   atomic.Int64
	chunkMsgsAsm    atomic.Int64
}

type config struct {
	tcp         bool
	link        *netsim.Link
	inj         *fault.Injector
	sendTimeout time.Duration
	onRetry     func(src, dst, attempt int)
	eng         engineConfig
}

// Option configures NewWorld.
type Option func(*config)

// WithTCP makes the world communicate over real TCP loopback sockets
// instead of in-memory channels.
func WithTCP() Option { return func(c *config) { c.tcp = true } }

// WithLink charges every transfer to the given shaped link.
func WithLink(l *netsim.Link) Option { return func(c *config) { c.link = l } }

// WithFaults wraps the world's transport in the deterministic
// fault-injection layer driven by inj (see internal/fault). Rank deaths
// reported by the injector propagate into Send/Recv as ErrRankDead.
func WithFaults(inj *fault.Injector) Option { return func(c *config) { c.inj = inj } }

// WithSendTimeout bounds how long a transport-level send may block (full
// peer inbox on the channel transport, socket write on TCP) before failing
// with ErrTimeout. Zero means block indefinitely, the pre-deadline
// behaviour.
func WithSendTimeout(d time.Duration) Option { return func(c *config) { c.sendTimeout = d } }

// WithRetryHook registers fn to be called from the TCP transport's send
// path each time a frame is about to be rewritten after a failed attempt
// (attempt >= 1). src and dst are world ranks. fn runs on the sending
// goroutine and must be fast and non-blocking; the in-memory transport
// never retries, so fn is never called there.
func WithRetryHook(fn func(src, dst, attempt int)) Option {
	return func(c *config) { c.onRetry = fn }
}

// WithEngine sets the world's progress-engine configuration (see
// Engine); zero fields keep their defaults.
func WithEngine(e Engine) Option { return func(c *config) { c.eng.Engine = e } }

// WithShm runs every rank pair of an in-process TCP world over
// shared-memory rings: the progress engine's batches are deposited into
// per-destination mmap-ed SPSC ring buffers instead of loopback sockets,
// so frames move with zero syscalls on the fast path. The world creates
// (and removes on Close) a private segment directory under /dev/shm or
// the temp dir. Requires WithTCP — the in-memory channel transport is
// already syscall-free and ignores it.
func WithShm() Option { return func(c *config) { c.eng.shmAuto = true } }

// WithShmSegments points one process of a distributed world at a
// launcher-created shm segment directory (see CreateShmSegments). The
// rank advertises its host identity (ShmHostID) alongside its TCP
// address; pairs whose identities match move frames over the directory's
// rings, everyone else keeps TCP. Selection is per pair and degrades to
// TCP on any failure. The launcher owns the directory's lifecycle.
func WithShmSegments(dir string) Option { return func(c *config) { c.eng.shmDir = dir } }

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts ...Option) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", n)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	w := &World{
		size:   n,
		comms:  make(map[uint32][]*Comm),
		early:  make(map[uint32][]earlyFrame),
		nextID: 1,
	}
	w.initChunking(cfg.eng)
	var err error
	if cfg.tcp {
		w.tr, err = newTCPTransport(n, cfg.link, cfg.sendTimeout, cfg.onRetry, cfg.eng)
	} else {
		w.tr, err = newMemTransport(n, cfg.link, cfg.sendTimeout)
	}
	if err != nil {
		return nil, err
	}
	if cfg.inj != nil {
		w.tr = newFaultTransport(w.tr, cfg.inj)
		// Rank deaths must wake receivers blocked on the dead peer.
		cfg.inj.Subscribe(w.markDead)
	}
	w.procs = make([]*proc, n)
	for i := 0; i < n; i++ {
		w.procs[i] = &proc{world: w, rank: i}
	}
	// World communicator gets id 0.
	w.makeComm(0, identityRanks(n))
	for i := 0; i < n; i++ {
		w.closeWG.Add(1)
		go w.route(i)
	}
	return w, nil
}

func identityRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Local reports whether world rank r is hosted in this process: always
// true for a NewWorld world, and true only for the joined rank in a
// distributed JoinWorld world.
func (w *World) Local(r int) bool { return w.local == nil || w.local[r] }

// Stats returns the world's cumulative transport counters (frames/bytes
// on the wire, TCP retransmits and dials) with the chunked-transfer
// layer's counters folded in. Safe to call concurrently with traffic and
// after Close.
func (w *World) Stats() Stats {
	s := w.tr.stats()
	s.ChunkFramesSent = w.chunkFramesSent.Load()
	s.ChunkFramesRecv = w.chunkFramesRecv.Load()
	s.ChunkMsgsSent = w.chunkMsgsSent.Load()
	s.ChunkMsgsReassembled = w.chunkMsgsAsm.Load()
	return s
}

// Comm returns world rank i's handle on the world communicator.
func (w *World) Comm(i int) *Comm {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.comms[0][i]
}

// makeComm registers a communicator with the given id whose member list is
// ranks (world ranks, indexed by comm rank). Non-member world ranks get nil.
func (w *World) makeComm(id uint32, ranks []int) []*Comm {
	peers := make([]*Comm, w.size)
	for commRank, worldRank := range ranks {
		c := &Comm{
			world:  w,
			id:     id,
			ranks:  ranks,
			myRank: commRank,
		}
		c.cond = sync.NewCond(&c.mu)
		peers[worldRank] = c
	}
	w.comms[id] = peers
	for _, e := range w.early[id] {
		if c := peers[e.rank]; c != nil {
			c.enqueue(e.f)
		}
	}
	delete(w.early, id)
	return peers
}

// earlyFrame is a frame for world rank `rank` on a communicator not yet
// built.
type earlyFrame struct {
	rank int
	f    frame
}

// NewComm creates a communicator over the given world ranks (in comm-rank
// order) and returns the per-world-rank handles (nil for non-members). All
// handles share one communicator id, so messages do not cross communicators.
func (w *World) NewComm(ranks []int) ([]*Comm, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	seen := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= w.size {
			return nil, fmt.Errorf("mpi: rank %d out of range", r)
		}
		if seen[r] {
			return nil, fmt.Errorf("mpi: duplicate rank %d", r)
		}
		seen[r] = true
	}
	id := w.nextID
	w.nextID++
	return w.makeComm(id, append([]int(nil), ranks...)), nil
}

// route is world rank r's delivery loop: it pulls frames off the transport
// and enqueues them on the target communicator's unexpected-message queue.
func (w *World) route(r int) {
	defer w.closeWG.Done()
	for {
		f, ok := w.tr.recv(r)
		if !ok {
			return
		}
		if f.tag == tagChunk {
			// Continuation frame of a chunked message: accumulate, and
			// deliver only the reassembled original (see chunk.go).
			g, done := w.reassemble(r, f)
			if !done {
				continue
			}
			f = g
		}
		w.mu.Lock()
		peers, built := w.comms[f.comm]
		var c *Comm
		if built {
			c = peers[r]
		} else {
			w.early[f.comm] = append(w.early[f.comm], earlyFrame{r, f})
		}
		w.mu.Unlock()
		if c != nil { // nil: rank r is not a member of that communicator
			c.enqueue(f)
		}
	}
}

// Close shuts the world down. Pending and future Recv calls return
// ErrClosed. Close is idempotent.
func (w *World) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	comms := w.comms
	w.mu.Unlock()
	w.tr.close()
	w.closeWG.Wait()
	for _, peers := range comms {
		for _, c := range peers {
			if c == nil {
				continue
			}
			c.mu.Lock()
			c.closed = true
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
	return nil
}

// markDead records a world rank's death and wakes every blocked receiver
// so waits on the dead peer can fail with ErrRankDead instead of hanging.
func (w *World) markDead(worldRank int) {
	w.deadMu.Lock()
	if w.dead == nil {
		w.dead = map[int]bool{}
	}
	w.dead[worldRank] = true
	w.deadMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, peers := range w.comms {
		for _, c := range peers {
			if c == nil {
				continue
			}
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// RankDead reports whether a world rank has been declared dead (by the
// fault-injection layer).
func (w *World) RankDead(worldRank int) bool {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	return w.dead[worldRank]
}

// ReplaceRank rewires a distributed world around a respawned worldRank
// now listening at addr: the stale directory entry, send connections and
// sequence counters toward the rank, and the receive-stream state from
// its old incarnation are dropped, and the rank's dead mark is cleared
// so traffic flows to the replacement. Only valid on worlds using the
// TCP transport (JoinWorld).
//
// A lingering frame from the old incarnation still buffered on a dying
// socket could in principle re-create receive-stream state after the
// reset; in practice failure detection runs on second-scale timeouts
// while a killed process's sockets drain in milliseconds, so the old
// incarnation is long gone by the time anyone calls ReplaceRank.
func (w *World) ReplaceRank(worldRank int, addr string) error {
	if worldRank < 0 || worldRank >= w.size {
		return fmt.Errorf("mpi: replace rank %d of world size %d", worldRank, w.size)
	}
	tc, ok := w.tr.(*tcpTransport)
	if !ok {
		return errors.New("mpi: ReplaceRank requires the TCP transport")
	}
	// Receive streams are keyed by the sender's rank within each
	// communicator; snapshot the replaced rank's comm ranks so the
	// transport can clear the old incarnation's stream state.
	commRanks := map[uint32]int{}
	w.mu.Lock()
	for id, peers := range w.comms {
		if c := peers[worldRank]; c != nil {
			commRanks[id] = c.myRank
		}
	}
	w.mu.Unlock()
	tc.replaceRank(worldRank, addr, commRanks)
	w.deadMu.Lock()
	delete(w.dead, worldRank)
	w.deadMu.Unlock()
	// Wake receivers that observed the rank as dead.
	w.mu.Lock()
	for _, peers := range w.comms {
		for _, c := range peers {
			if c == nil {
				continue
			}
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
	w.mu.Unlock()
	return nil
}

// proc is one world rank's endpoint state.
type proc struct {
	world *World
	rank  int
}

// Comm is one rank's handle on a communicator. A Comm's methods may be used
// by one goroutine at a time per operation type, matching MPI usage; Send
// and Recv from different goroutines of the same rank are safe.
type Comm struct {
	world  *World
	id     uint32
	ranks  []int // world ranks indexed by comm rank
	myRank int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	closed bool
}

// Rank returns this process's rank in the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Send sends data to comm rank dst with the given tag. Blocking semantics
// follow MPI's standard mode: the call may return once the message is
// buffered; data may be reused (or recycled into a pool) as soon as Send
// returns — the transports uphold that contract themselves, copying the
// payload only when they actually retain it past the send call (see
// transport.send), so synchronous transports like TCP pay no copy at all.
// User tags must be >= 0.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tag %d must be >= 0", tag)
	}
	if dst < 0 || dst >= len(c.ranks) {
		return fmt.Errorf("mpi: send to rank %d of %d", dst, len(c.ranks))
	}
	if th := c.world.chunkBytes; th > 0 && len(data) > th {
		return c.sendChunked(dst, tag, data)
	}
	f := frame{comm: c.id, srcRank: int32(c.myRank), tag: int32(tag), data: data}
	return c.world.tr.send(c.ranks[c.myRank], c.ranks[dst], f)
}

// Recv receives a message matching (src, tag); AnySource and AnyTag act as
// wildcards (AnyTag matches only user tags, i.e. tags >= 0). It blocks
// until a matching message arrives, the world is closed, or — under fault
// injection — the calling rank or the awaited source rank is declared
// dead (ErrRankDead).
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	return c.recvWait(src, tag, nil, nil)
}

// RecvContext is Recv bounded by a context: when ctx is cancelled or its
// deadline passes before a matching message arrives, it returns an error
// wrapping both ErrTimeout and ctx.Err(). This is the failure-detection
// primitive for callers that must not hang on a dead or wedged peer.
func (c *Comm) RecvContext(ctx context.Context, src, tag int) ([]byte, Status, error) {
	if ctx.Done() == nil {
		return c.Recv(src, tag)
	}
	return c.recvWait(src, tag, ctx.Done(), ctx.Err)
}

// RecvTimeout is Recv with a deadline; it returns an error wrapping
// ErrTimeout if no matching message arrives within d.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) ([]byte, Status, error) {
	if d <= 0 {
		return c.Recv(src, tag)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.RecvContext(ctx, src, tag)
}

// recvWait is the matching loop shared by the Recv variants. cancel, when
// non-nil, aborts the wait; cause (may be nil) supplies the context error
// to report alongside ErrTimeout.
func (c *Comm) recvWait(src, tag int, cancel <-chan struct{}, cause func() error) ([]byte, Status, error) {
	var cancelled bool // guarded by c.mu
	if cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				c.mu.Lock()
				cancelled = true
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-stop:
			}
		}()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for i, f := range c.queue {
			if matches(f, src, tag) {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				return f.data, Status{Source: int(f.srcRank), Tag: int(f.tag)}, nil
			}
		}
		if c.closed {
			return nil, Status{}, ErrClosed
		}
		if c.world.RankDead(c.ranks[c.myRank]) {
			return nil, Status{}, fmt.Errorf("mpi: receiving rank %d: %w", c.myRank, ErrRankDead)
		}
		if src != AnySource && c.world.RankDead(c.ranks[src]) {
			return nil, Status{}, fmt.Errorf("mpi: source rank %d: %w", src, ErrRankDead)
		}
		if cancelled {
			err := error(nil)
			if cause != nil {
				err = cause()
			}
			return nil, Status{}, fmt.Errorf("mpi: recv (src=%d tag=%d): %w", src, tag, errors.Join(ErrTimeout, err))
		}
		c.cond.Wait()
	}
}

func matches(f frame, src, tag int) bool {
	if src != AnySource && int(f.srcRank) != src {
		return false
	}
	switch {
	case tag == AnyTag:
		return f.tag >= 0 // wildcard never matches system (negative) tags
	default:
		return int(f.tag) == tag
	}
}

func (c *Comm) enqueue(f frame) {
	c.mu.Lock()
	c.queue = append(c.queue, f)
	c.cond.Broadcast()
	c.mu.Unlock()
}
