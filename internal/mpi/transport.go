package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/netsim"
)

// transport moves frames between world ranks. src and dst are world ranks;
// src lets a fault-injection wrapper attribute traffic to its true sender
// even on sub-communicators, where frame.srcRank is a comm rank.
type transport interface {
	// send delivers f toward dst. Ownership contract: the caller may reuse
	// f.data as soon as send returns, so an implementation that retains the
	// payload past the call (a buffering inbox, an async delivery queue,
	// the TCP progress engine's batch) must copy it first; a synchronous
	// write path that puts the bytes on the wire before returning must
	// not. On the receive side the contract inverts: a frame handed out by
	// recv is owned by the receiver and is never touched by the transport
	// again.
	send(src, dst int, f frame) error
	// recv blocks for the next frame addressed to world rank r; ok=false
	// means the transport has been closed.
	recv(r int) (frame, bool)
	// stats returns the transport's cumulative counters.
	stats() Stats
	close()
}

// Stats are cumulative transport-level counters for one World, exposed
// through World.Stats so the DataMPI runtime can fold link behaviour
// (retransmits, reconnects, wire volume) into its job counters.
type Stats struct {
	// FramesSent/BytesSent count payloads handed to the wire (after any
	// fault-injection drops); a frame counts once, when its write — or the
	// batch flush carrying it — succeeds.
	FramesSent, BytesSent int64
	// FramesRecv/BytesRecv count payloads delivered to receivers.
	FramesRecv, BytesRecv int64
	// SendRetries counts TCP batch/frame rewrites after a failed attempt;
	// the in-memory transport never retries.
	SendRetries int64
	// Dials counts TCP connection establishments (first connects and
	// post-reset redials).
	Dials int64

	// CoalesceBatches counts progress-engine flushes that shipped more
	// than one frame in a single write — real coalescing, not lone-frame
	// drains.
	CoalesceBatches int64
	// MuxConns is the peak number of simultaneously open outgoing
	// connections: every communicator and sender rank multiplexes onto one
	// per destination.
	MuxConns int64
	// WritevCalls counts batch writes issued by the progress engine; each
	// ships everything pending toward one destination in a single syscall.
	WritevCalls int64

	// ShmConns is how many destinations this transport reached over
	// shared-memory rings; ShmBytes the bytes moved through them (frame
	// headers included — the ring carries the raw batched wire format).
	// ShmWakes counts futex wakes issued toward a sleeping peer (at most
	// one per empty→nonempty or full→space transition); ShmSpins the
	// yield-spin iterations burned before sleeping. A busy pair keeps
	// wakes near zero, an idle pair costs nothing.
	ShmConns, ShmBytes int64
	ShmWakes, ShmSpins int64

	// ChunkFramesSent/ChunkMsgsSent count the BigMPI-style chunked
	// transfer layer's activity on the send side: messages above the chunk
	// threshold are split into sequenced continuation frames
	// (ChunkFramesSent counts those frames, ChunkMsgsSent the original
	// messages). ChunkFramesRecv/ChunkMsgsReassembled mirror them at the
	// receive demux, which reassembles continuations back into the
	// original message before delivery. These are World-level counters:
	// chunking happens above the raw transport, identically over TCP, shm
	// rings and the in-memory channels.
	ChunkFramesSent      int64
	ChunkFramesRecv      int64
	ChunkMsgsSent        int64
	ChunkMsgsReassembled int64
}

// transportStats is the shared atomic implementation behind Stats.
type transportStats struct {
	framesSent, bytesSent atomic.Int64
	framesRecv, bytesRecv atomic.Int64
	sendRetries, dials    atomic.Int64
}

func (s *transportStats) countSend(n int) {
	s.framesSent.Add(1)
	s.bytesSent.Add(int64(n))
}

func (s *transportStats) countRecv(n int) {
	s.framesRecv.Add(1)
	s.bytesRecv.Add(int64(n))
}

func (s *transportStats) stats() Stats {
	return Stats{
		FramesSent: s.framesSent.Load(), BytesSent: s.bytesSent.Load(),
		FramesRecv: s.framesRecv.Load(), BytesRecv: s.bytesRecv.Load(),
		SendRetries: s.sendRetries.Load(), Dials: s.dials.Load(),
	}
}

// frameHeaderSize is the fixed wire header: comm id + src + tag + seq +
// payload length.
const frameHeaderSize = 24

// frameOverhead is the per-message protocol overhead we charge to the
// network link: the frame header plus a nominal transport-layer framing
// cost comparable to a TCP/IP header.
const frameOverhead = frameHeaderSize + 52

// maxFrameSize is the absolute cap on one frame's payload, the bound the
// stream parser enforces: a corrupt or hostile length header can
// therefore not force an unbounded allocation; readFrame rejects larger
// claims with ErrFrameTooLarge. Messages larger than the chunk threshold
// travel as chunked continuation frames, so the cap bounds frames, not
// messages.
const maxFrameSize = 256 << 20

// FrameCap exports the absolute frame payload cap for configuration
// validation at higher layers (a chunk threshold at or above it could
// never fit a chunk frame).
const FrameCap = maxFrameSize

// frameAllocChunk bounds how much readFrame allocates ahead of the bytes
// the stream has actually produced, so even an in-cap lying header cannot
// balloon memory before the short read surfaces.
const frameAllocChunk = 1 << 20

// tcpSendRetries is how many times a TCP flush redials and rewrites after
// a connection failure before declaring the peer dead.
const tcpSendRetries = 4

// tcpDialTimeout bounds one dial attempt inside the retry loop.
const tcpDialTimeout = 2 * time.Second

// tcpDrainBound bounds close()'s wait for the progress engine to
// flush acknowledged-but-unwritten frames (TCP writes and shm ring
// deposits alike). Healthy writers drain in microseconds; the cap only
// matters for a writer wedged against a peer that died without closing
// its socket.
const tcpDrainBound = 2 * time.Second

// Engine is a world's progress-engine configuration. Its one setting is
// the chunked-transfer threshold; the zero value selects the default, and
// normalize is the one place it is applied, so every world built from the
// same Engine — an in-process world, a launcher's, or a spawned worker's —
// runs the same engine.
type Engine struct {
	// ChunkBytes is the chunked-transfer threshold: a message payload
	// strictly larger than it is split into sequenced continuation frames
	// of at most ChunkBytes data bytes each and reassembled at the
	// receive demux (the BigMPI chunking strategy; see chunk.go). Zero or
	// negative keeps the 4 MiB default; the threshold is clamped so one
	// chunk frame always fits the frame cap. Applies to every transport.
	ChunkBytes int
}

// engineConfig is a world's Engine plus the shared-memory ring selection,
// which is a property of how the world is hosted, not a tunable.
type engineConfig struct {
	Engine

	// shmAuto: in-process world, create a private segment directory and
	// run every pair over rings. shmDir: distributed world, select shm
	// per pair by the boot-id/nonce handshake against this
	// launcher-created directory. Mutually exclusive by construction.
	shmAuto bool
	shmDir  string
}

// defaultChunkBytes is the default chunked-transfer threshold and chunk
// payload size (the BigMPI chunking strategy). It sits far above the
// runtime's SPL frames (256 KiB by default) — ordinary shuffle traffic
// never chunks —
// and far below maxFrameSize, so chunk frames stay cheap to buffer,
// retry and checkpoint while oversized values stream through in
// O(chunk) memory.
const defaultChunkBytes = 4 << 20

func (e *engineConfig) normalize() {
	if e.ChunkBytes <= 0 {
		e.ChunkBytes = defaultChunkBytes
	}
	// A chunk frame carries chunkHdrSize bytes of sub-header on top of
	// its data; the threshold must leave room for it under the frame cap
	// (config-level validation rejects this loudly — the clamp keeps the
	// invariant for worlds built from a raw Engine).
	if e.ChunkBytes > maxFrameSize-chunkHdrSize {
		e.ChunkBytes = maxFrameSize - chunkHdrSize
	}
}

// maxPendingBytes bounds how far a connection's batch may run ahead of
// its writer before senders block — the TCP analogue of the mem
// transport's bounded inbox. The slack lets bursts coalesce; a stalled
// peer cannot absorb unbounded memory. A single frame larger than the
// bound is still accepted once the batch has drained below it.
const maxPendingBytes = 1 << 20

// ---------------------------------------------------------------------------
// In-memory transport

type memTransport struct {
	transportStats
	inboxes     []chan frame
	link        *netsim.Link
	sendTimeout time.Duration
	done        chan struct{}
	once        sync.Once
}

func newMemTransport(n int, link *netsim.Link, sendTimeout time.Duration) (*memTransport, error) {
	t := &memTransport{
		inboxes:     make([]chan frame, n),
		link:        link,
		sendTimeout: sendTimeout,
		done:        make(chan struct{}),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan frame, 1024)
	}
	return t, nil
}

func (t *memTransport) send(src, dst int, f frame) error {
	if t.link != nil {
		t.link.Transfer(int64(len(f.data)), frameOverhead, 0)
	}
	// The inbox retains the frame past this call, so take the ownership
	// copy here (transport.send contract); the receiver then owns it.
	if f.data != nil {
		f.data = append([]byte(nil), f.data...)
	}
	select {
	case t.inboxes[dst] <- f:
		t.countSend(len(f.data))
		return nil
	case <-t.done:
		return ErrClosed
	default:
	}
	// Inbox full: wait, but never forever when a deadline is configured —
	// a receiver that has exited (dead rank) would otherwise block this
	// sender indefinitely.
	if t.sendTimeout <= 0 {
		select {
		case t.inboxes[dst] <- f:
			t.countSend(len(f.data))
			return nil
		case <-t.done:
			return ErrClosed
		}
	}
	tm := time.NewTimer(t.sendTimeout)
	defer tm.Stop()
	select {
	case t.inboxes[dst] <- f:
		t.countSend(len(f.data))
		return nil
	case <-t.done:
		return ErrClosed
	case <-tm.C:
		return fmt.Errorf("mpi: send to rank %d: inbox full for %v: %w", dst, t.sendTimeout, ErrTimeout)
	}
}

func (t *memTransport) recv(r int) (frame, bool) {
	// Prefer pending frames over shutdown so queued messages drain.
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	default:
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	case <-t.done:
		return frame{}, false
	}
}

func (t *memTransport) close() {
	t.once.Do(func() { close(t.done) })
}

// ---------------------------------------------------------------------------
// TCP transport with a send-side progress engine
//
// The send path is a progress engine (the ROADMAP's "fewer syscalls,
// fewer wakeups" layer): every frame is serialized into a per-connection
// batch that a dedicated writer goroutine drains — senders append and
// return without ever blocking on a syscall, frames deposited while a
// write is in flight coalesce into the next single write, and every
// communicator and sender rank multiplexes onto one connection per
// destination. The receive path is unchanged: a batch is just
// concatenated frames, demultiplexed by the (comm, srcRank) header every
// frame always carried, and per-stream sequence numbers keep delivery
// exactly-once in order across resets and whole-batch rewrites.

type tcpTransport struct {
	transportStats
	n           int
	self        int // local rank in a distributed world; -1 = all ranks local
	link        *netsim.Link
	sendTimeout time.Duration
	onRetry     func(src, dst, attempt int)
	eng         engineConfig
	listeners   []net.Listener
	addrs       []string
	inboxes     []chan frame
	done        chan struct{}
	shm         *shmState // nil unless same-host rings are in play

	coalesceBatches atomic.Int64
	writevCalls     atomic.Int64

	mu       sync.Mutex
	conns    map[int]*tcpConn  // dst -> progress-engine connection state
	sendSeq  map[[3]int]uint64 // [comm,srcRank,dst] -> next sequence number per stream
	outbound map[net.Conn]struct{}
	muxPeak  int64 // peak len(outbound), reported as Stats.MuxConns
	accepted map[net.Conn]struct{}
	closed   bool // close() started: new sends fail fast, drain is underway
	torndown bool // drain finished, sockets severed: no more dialing
	wg       sync.WaitGroup

	rdMu      sync.Mutex
	streams   map[[3]int]*streamState // [comm,srcRank,dst] -> receive ordering
	deliverMu []sync.Mutex            // per receiving rank: serializes reorder + inbox hand-off
}

// streamState reorders one incoming stream. After a connection reset the
// sender redials, and the replacement connection's readLoop races the old
// one draining its final frames into the inbox; delivering strictly by the
// sender-assigned sequence number restores stream order and discards the
// rare duplicate (a frame whose write "failed" after the bytes were
// already delivered, then was rewritten on the new connection). The same
// mechanism makes whole-batch rewrites after a mid-batch reset safe: the
// prefix that slipped out before the reset is deduplicated, the tail is
// delivered once.
type streamState struct {
	next uint64
	held map[uint64]frame
}

// tcpConn is one outgoing connection's progress-engine state: the live
// socket (redialed on demand after a drop), the pending batch its writer
// goroutine drains, and — after a flush exhausts its retries — the
// sticky failure-detector verdict. A connWriter goroutine owns all
// socket I/O.
type tcpConn struct {
	dst  int
	ring *shmRing // non-nil: flushes go to shared memory, never a socket

	mu           sync.Mutex
	c            net.Conn // nil until dialed, and after a drop
	err          error    // sticky ErrRankDead verdict; lives until rank replacement retires the conn
	batch        []byte   // serialized frames awaiting the writer's next flush
	batchFrames  int
	batchPayload int64 // payload bytes in batch (counters exclude headers)
	stopped      bool  // retired by replaceRank: the writer exits, senders drop
	src          int   // world rank of the latest sender, for retry-hook attribution

	flushing bool // the writer is mid-flush on a swapped-out batch

	kick  chan struct{} // cap 1: batch state changed, wake the writer
	space chan struct{} // cap 1: writer drained, backpressured senders recheck
	dead  chan struct{} // closed on sticky verdict or retirement; unblocks waiters
	once  sync.Once     // guards the dead close
}

// closeDead marks tc permanently unusable, waking any blocked sender.
func (tc *tcpConn) closeDead() { tc.once.Do(func() { close(tc.dead) }) }

func newTCPTransport(n int, link *netsim.Link, sendTimeout time.Duration, onRetry func(src, dst, attempt int), eng engineConfig) (*tcpTransport, error) {
	t := &tcpTransport{
		n:           n,
		self:        -1,
		link:        link,
		sendTimeout: sendTimeout,
		onRetry:     onRetry,
		eng:         eng,
		listeners:   make([]net.Listener, n),
		addrs:       make([]string, n),
		inboxes:     make([]chan frame, n),
		done:        make(chan struct{}),
		conns:       make(map[int]*tcpConn),
		sendSeq:     make(map[[3]int]uint64),
		outbound:    make(map[net.Conn]struct{}),
		streams:     make(map[[3]int]*streamState),
		deliverMu:   make([]sync.Mutex, n),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: listen: %w", err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.inboxes[i] = make(chan frame, 1024)
	}
	if eng.shmAuto {
		// Every rank of an in-process world shares this host by
		// definition; no handshake needed, just a private segment dir.
		if err := t.setupShmLocal(); err != nil {
			t.close()
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		t.wg.Add(1)
		go t.acceptLoop(i)
	}
	return t, nil
}

// newDistTCPTransport builds the single-process slice of a distributed
// TCP transport: rank self listens on ln (whose address must equal
// addrs[self]); every other rank is reached by dialing its directory
// address. The wire protocol, per-stream sequencing, retry machinery and
// progress engine are exactly those of the all-local transport — each
// (comm, srcRank, dst) stream originates in exactly one process, so
// sender-assigned sequence numbers stay consistent across the
// distributed world. With multiplexing on (the default), the whole
// process shares one outgoing connection per destination process, so a
// proc-mode fleet runs O(n) sockets per host-pair instead of one per
// (comm, rank) triple.
func newDistTCPTransport(n, self int, ln net.Listener, addrs []string, link *netsim.Link, sendTimeout time.Duration, onRetry func(src, dst, attempt int), eng engineConfig) (*tcpTransport, error) {
	// Directory entries are transport descriptors: a dialable TCP address,
	// optionally tagged with the rank's shm host identity. Dialing always
	// uses the stripped address; the tags drive per-pair selection below.
	plain := make([]string, n)
	for i, desc := range addrs {
		plain[i], _ = parseShmAddr(desc)
	}
	t := &tcpTransport{
		n:           n,
		self:        self,
		link:        link,
		sendTimeout: sendTimeout,
		onRetry:     onRetry,
		eng:         eng,
		listeners:   make([]net.Listener, n),
		addrs:       plain,
		inboxes:     make([]chan frame, n),
		done:        make(chan struct{}),
		conns:       make(map[int]*tcpConn),
		sendSeq:     make(map[[3]int]uint64),
		outbound:    make(map[net.Conn]struct{}),
		streams:     make(map[[3]int]*streamState),
		deliverMu:   make([]sync.Mutex, n),
	}
	t.listeners[self] = ln
	t.addrs[self] = ln.Addr().String()
	t.inboxes[self] = make(chan frame, 1024)
	if eng.shmDir != "" {
		t.setupShmDist(addrs)
	}
	t.wg.Add(1)
	go t.acceptLoop(self)
	return t, nil
}

func (t *tcpTransport) stats() Stats {
	s := t.transportStats.stats()
	s.CoalesceBatches = t.coalesceBatches.Load()
	s.WritevCalls = t.writevCalls.Load()
	if t.shm != nil {
		s.ShmConns = t.shm.c.conns.Load()
		s.ShmBytes = t.shm.c.bytes.Load()
		s.ShmWakes = t.shm.c.wakes.Load()
		s.ShmSpins = t.shm.c.spins.Load()
	}
	t.mu.Lock()
	s.MuxConns = t.muxPeak
	t.mu.Unlock()
	return s
}

func (t *tcpTransport) acceptLoop(r int) {
	defer t.wg.Done()
	for {
		conn, err := t.listeners[r].Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(r, conn)
	}
}

func (t *tcpTransport) readLoop(r int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// Track the accepted connection so close() can sever it: in a
	// distributed world its peer lives in another process and stays open
	// across our shutdown, so the read below would otherwise block forever.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.accepted == nil {
		t.accepted = make(map[net.Conn]struct{})
	}
	t.accepted[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil || !t.deliver(r, f) {
			return
		}
	}
}

// deliver admits f into its stream's order and hands every frame that
// became deliverable to rank r's inbox, returning false once the
// transport is closed. All readers toward r — the old and the new socket
// after a reset, a shm ring — serialize here, so frames one reader
// released can never be overtaken in the inbox by later frames another
// reader released. The lock is held across the inbox send on purpose:
// only readers of the same inbox wait on it, and they could not hand off
// past a full inbox anyway; shutdown still wins through t.done.
func (t *tcpTransport) deliver(r int, f frame) bool {
	t.deliverMu[r].Lock()
	defer t.deliverMu[r].Unlock()
	for _, g := range t.orderStream(r, f) {
		select {
		case t.inboxes[r] <- g:
		case <-t.done:
			return false
		}
	}
	return true
}

// orderStream admits a received frame into its stream's sequence order,
// returning the frames that are now deliverable (possibly none: the frame
// is held until its predecessors arrive; possibly several: it filled a
// gap). Duplicates — sequence numbers already delivered — are discarded,
// making TCP delivery exactly-once even across connection resets.
func (t *tcpTransport) orderStream(r int, f frame) []frame {
	key := [3]int{int(f.comm), int(f.srcRank), r}
	t.rdMu.Lock()
	defer t.rdMu.Unlock()
	st := t.streams[key]
	if st == nil {
		st = &streamState{held: make(map[uint64]frame)}
		t.streams[key] = st
	}
	if f.seq < st.next {
		return nil // duplicate of an already-delivered frame
	}
	if f.seq > st.next {
		st.held[f.seq] = f
		return nil
	}
	out := []frame{f}
	st.next++
	for {
		g, ok := st.held[st.next]
		if !ok {
			return out
		}
		delete(st.held, st.next)
		out = append(out, g)
		st.next++
	}
}

// putFrameHeader writes f's fixed wire header into hdr, which must be at
// least frameHeaderSize bytes.
func putFrameHeader(hdr []byte, f frame) {
	binary.BigEndian.PutUint32(hdr[0:], f.comm)
	binary.BigEndian.PutUint32(hdr[4:], uint32(f.srcRank))
	binary.BigEndian.PutUint32(hdr[8:], uint32(int32(f.tag)))
	binary.BigEndian.PutUint64(hdr[12:], f.seq)
	binary.BigEndian.PutUint32(hdr[20:], uint32(len(f.data)))
}

// appendFrame serializes f (header + payload) onto b. A batch on the wire
// is nothing more than concatenated frames — the receive side needs no
// batch framing; readFrame consumes them one by one off the stream.
func appendFrame(b []byte, f frame) []byte {
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	b = append(b, hdr[:]...)
	return append(b, f.data...)
}

// writeFrame writes one frame through a buffered writer and flushes. The
// progress engine does not use it — it exists as the reference serializer
// readFrame is tested against.
func writeFrame(w *bufio.Writer, f frame) error {
	if len(f.data) > maxFrameSize {
		return fmt.Errorf("mpi: %d-byte frame: %w", len(f.data), ErrFrameTooLarge)
	}
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(f.data); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{
		comm:    binary.BigEndian.Uint32(hdr[0:]),
		srcRank: int32(binary.BigEndian.Uint32(hdr[4:])),
		tag:     int32(binary.BigEndian.Uint32(hdr[8:])),
		seq:     binary.BigEndian.Uint64(hdr[12:]),
	}
	n := int64(binary.BigEndian.Uint32(hdr[20:]))
	if n > maxFrameSize {
		return frame{}, fmt.Errorf("mpi: frame header claims %d bytes: %w", n, ErrFrameTooLarge)
	}
	// Grow in bounded chunks: the stream must keep producing bytes before
	// the next chunk is allocated, so a lying in-cap length cannot reserve
	// memory the connection never backs.
	for int64(len(f.data)) < n {
		chunk := n - int64(len(f.data))
		if chunk > frameAllocChunk {
			chunk = frameAllocChunk
		}
		old := len(f.data)
		f.data = append(f.data, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, f.data[old:]); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// send deposits f into its destination's batch. The engine multiplexes
// every communicator and sender rank onto one connection per destination
// — O(n) sockets instead of one per (comm, srcRank, dst) triple —
// demultiplexed on the receive side by the (comm, srcRank) header every
// frame carries.
func (t *tcpTransport) send(src, dst int, f frame) error {
	if len(f.data) > maxFrameSize {
		return fmt.Errorf("mpi: %d-byte frame: %w", len(f.data), ErrFrameTooLarge)
	}
	if t.link != nil {
		t.link.Transfer(int64(len(f.data)), frameOverhead, 0)
	}
	// The stream sequence number is assigned once and reused across
	// retries: a rewrite after a connection failure carries the same seq,
	// so the receiver's reorderer can discard it if the original actually
	// arrived. Streams stay keyed by the full triple even when their
	// frames share a multiplexed connection. The conn and the seq are
	// resolved under one t.mu hold, so a concurrent replaceRank either
	// retires both (the frame is dropped with its incarnation) or neither.
	seqKey := [3]int{int(f.comm), int(f.srcRank), dst}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	f.seq = t.sendSeq[seqKey]
	t.sendSeq[seqKey]++
	tc := t.conns[dst]
	if tc == nil {
		tc = &tcpConn{
			dst:   dst,
			ring:  t.shm.outRing(dst), // nil: this pair flushes to a socket
			kick:  make(chan struct{}, 1),
			space: make(chan struct{}, 1),
			dead:  make(chan struct{}),
		}
		t.conns[dst] = tc
		t.wg.Add(1)
		go t.connWriter(tc)
	}
	t.mu.Unlock()

	// Deposit the frame into the writer's batch and return — the sender
	// never blocks on a syscall. The batch retains the bytes past this
	// call, so the serialization copy here is the transport.send
	// ownership contract. Backpressure: when the batch has run
	// maxPendingBytes ahead of the writer, wait for a drain.
	var timeoutC <-chan time.Time
	tc.mu.Lock()
	tc.src = src
	for {
		if tc.err != nil {
			// The writer exhausted its retries: the engine has already
			// declared this destination dead. Fail fast — the verdict
			// lives until a replacement takes over the rank.
			err := tc.err
			tc.mu.Unlock()
			return err
		}
		if tc.stopped {
			// replaceRank retired this connection: the frame belongs to
			// the dead incarnation's streams and is dropped exactly like
			// the batch it would have joined.
			tc.mu.Unlock()
			return nil
		}
		if len(tc.batch) < maxPendingBytes {
			break
		}
		tc.mu.Unlock()
		if t.sendTimeout > 0 && timeoutC == nil {
			tm := time.NewTimer(t.sendTimeout)
			defer tm.Stop()
			timeoutC = tm.C
		}
		select {
		case <-tc.space:
		case <-tc.dead:
		case <-t.done:
			return ErrClosed
		case <-timeoutC: // nil (blocks forever) when no timeout is set
			return fmt.Errorf("mpi: send to rank %d: batch backlog for %v: %w",
				dst, t.sendTimeout, ErrTimeout)
		}
		tc.mu.Lock()
	}
	tc.batch = appendFrame(tc.batch, f)
	tc.batchFrames++
	tc.batchPayload += int64(len(f.data))
	tc.mu.Unlock()
	select {
	case tc.kick <- struct{}{}:
	default:
	}
	return nil
}

// connWriter is tc's progress engine: a per-connection goroutine that
// owns the socket and drains the batch eagerly — the moment the previous
// write returns — so coalescing happens exactly when the socket is the
// bottleneck and an isolated control frame is never delayed. Exits on
// transport shutdown, on retirement by replaceRank, or after parking a
// sticky dead-rank verdict (no later send can enqueue anything past it).
func (t *tcpTransport) connWriter(tc *tcpConn) {
	defer t.wg.Done()
	var buf []byte // writer-owned flush buffer, swapped with the live batch
	for {
		tc.mu.Lock()
		for tc.batchFrames == 0 && !tc.stopped {
			tc.mu.Unlock()
			select {
			case <-tc.kick:
			case <-t.done:
				return
			}
			tc.mu.Lock()
		}
		if tc.stopped {
			tc.mu.Unlock()
			return
		}
		frames, payload, src := tc.batchFrames, tc.batchPayload, tc.src
		buf, tc.batch = tc.batch, buf[:0]
		tc.batchFrames, tc.batchPayload = 0, 0
		tc.flushing = true
		tc.mu.Unlock()
		select {
		case tc.space <- struct{}{}:
		default:
		}
		err := t.flushBuf(tc, buf, frames, payload, src)
		tc.mu.Lock()
		tc.flushing = false
		tc.mu.Unlock()
		if err != nil {
			return // shutdown, or a sticky verdict nothing can enqueue past
		}
		// An oversized one-off (a huge frame) should not pin its buffer
		// for the connection's lifetime.
		if cap(buf) > 4*maxPendingBytes {
			buf = nil
		}
	}
}

// flushBuf ships one swapped-out batch in a single write, redialing and
// rewriting the whole batch on failure. Rewrites are safe against
// duplication: every frame carries its stream sequence number, so a
// receiver that got (part of) the first attempt discards what it already
// delivered and the batch tail still arrives exactly once. On retry
// exhaustion the error is parked as tc's sticky verdict.
func (t *tcpTransport) flushBuf(tc *tcpConn, buf []byte, frames int, payload int64, src int) error {
	if tc.ring != nil {
		// Same-host pair: the identical batch bytes go into the shared
		// ring instead of a socket — zero syscalls on the fast path.
		return t.flushShm(tc, buf, frames, payload)
	}
	var lastErr error
	for attempt := 0; attempt <= tcpSendRetries; attempt++ {
		if attempt > 0 {
			t.sendRetries.Add(1)
			if t.onRetry != nil {
				t.onRetry(src, tc.dst, attempt)
			}
			// Exponential backoff: 1, 2, 4, 8 ms.
			backoff := time.Duration(1<<uint(attempt-1)) * time.Millisecond
			select {
			case <-t.done:
				return ErrClosed
			case <-time.After(backoff):
			}
		}
		tc.mu.Lock()
		if err := t.ensureConnLocked(tc); err != nil {
			tc.mu.Unlock()
			if err == ErrClosed {
				return err
			}
			lastErr = err
			continue
		}
		c := tc.c
		tc.mu.Unlock()
		if t.sendTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(t.sendTimeout))
		}
		// One syscall for the whole batch. net.Buffers consumes itself on
		// write, so it is rebuilt per attempt; buf's bytes are untouched.
		bufs := net.Buffers{buf}
		_, err := bufs.WriteTo(c)
		if err == nil {
			t.writevCalls.Add(1)
			t.framesSent.Add(int64(frames))
			t.bytesSent.Add(payload)
			if frames > 1 {
				t.coalesceBatches.Add(1)
			}
			return nil
		}
		lastErr = err
		// The connection (and any partially written batch) is poisoned:
		// drop it so the next attempt redials and rewrites from scratch.
		// The receiver discards partial frames and deduplicates complete
		// ones by sequence number, so a rewrite cannot double-deliver.
		tc.mu.Lock()
		t.dropConnLocked(tc)
		tc.mu.Unlock()
	}
	// Failure-detector verdict: the destination stayed unreachable through
	// every redial. Drop anything still pending — nothing can deliver it —
	// and make the verdict sticky so later sends fail fast instead of
	// re-running the whole retry ladder per frame.
	tc.mu.Lock()
	tc.err = fmt.Errorf("mpi: send to rank %d failed after %d attempts (%v): %w",
		tc.dst, tcpSendRetries+1, lastErr, ErrRankDead)
	tc.batch, tc.batchFrames, tc.batchPayload = nil, 0, 0
	err := tc.err
	tc.mu.Unlock()
	tc.closeDead()
	return err
}

// ensureConnLocked dials tc's destination if its socket is down. Called
// with tc.mu held, so concurrent senders to one destination wait on the
// single dial instead of racing duplicates.
func (t *tcpTransport) ensureConnLocked(tc *tcpConn) error {
	if tc.c != nil {
		return nil
	}
	t.mu.Lock()
	if t.torndown {
		// closed-but-not-torndown means close() is draining: writers may
		// still dial to deliver batches whose sends already returned
		// success.
		t.mu.Unlock()
		return ErrClosed
	}
	addr := t.addrs[tc.dst]
	t.mu.Unlock()
	d := net.Dialer{Timeout: tcpDialTimeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("mpi: dial rank %d: %w", tc.dst, err)
	}
	t.dials.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return ErrClosed
	}
	t.outbound[c] = struct{}{}
	if n := int64(len(t.outbound)); n > t.muxPeak {
		t.muxPeak = n
	}
	t.mu.Unlock()
	tc.c = c
	return nil
}

// dropConnLocked closes and forgets tc's socket. The batch and stream
// sequence state survive the drop, so the next flush redials and rewrites
// everything still pending. Called with tc.mu held.
func (t *tcpTransport) dropConnLocked(tc *tcpConn) {
	if tc.c == nil {
		return
	}
	t.mu.Lock()
	delete(t.outbound, tc.c)
	t.mu.Unlock()
	tc.c.Close()
	tc.c = nil
}

// resetConn injects a connection reset: the next flush toward dst must
// redial. Used by the fault layer; every stream toward dst shares the
// connection, so the reset severs all of them at once, and the
// rewrite/dedup machinery absorbs it. Pending batched frames survive the
// reset and ride the next flush.
func (t *tcpTransport) resetConn(dst int) {
	t.mu.Lock()
	tc := t.conns[dst]
	t.mu.Unlock()
	if tc == nil {
		return
	}
	tc.mu.Lock()
	t.dropConnLocked(tc)
	tc.mu.Unlock()
}

// replaceRank rewires the transport around a respawned rank: the address
// directory points at the replacement, outgoing connections — including
// their pending batches and any sticky dead-peer verdict — and sequence
// counters toward the rank are dropped (the new incarnation expects every
// stream to restart at sequence 0, and frames addressed to the old one
// must not leak into it; committed-chunk replay re-covers that data), and
// receive-stream ordering state from the old incarnation is cleared so
// the replacement's streams are admitted from scratch. commRanks maps
// communicator id -> the replaced rank's rank within that communicator,
// the key space of incoming streams.
func (t *tcpTransport) replaceRank(worldRank int, addr string, commRanks map[uint32]int) {
	// The pair is demoted to TCP regardless of what the replacement
	// advertises: its rings still hold the dead incarnation's cursors and
	// residue (see shmState.retireRank).
	plain, _ := parseShmAddr(addr)
	t.shm.retireRank(worldRank)
	t.mu.Lock()
	t.addrs[worldRank] = plain
	tc := t.conns[worldRank]
	delete(t.conns, worldRank)
	for key := range t.sendSeq {
		if key[2] == worldRank {
			delete(t.sendSeq, key)
		}
	}
	t.mu.Unlock()
	if tc != nil {
		// Retire the connection outright rather than reviving it in place:
		// the writer goroutine exits, racing senders that already resolved
		// this tc drop their frames (old-incarnation streams), and the next
		// send toward the rank creates a fresh conn with a fresh writer.
		tc.mu.Lock()
		tc.stopped = true
		tc.batch = nil
		tc.batchFrames = 0
		tc.batchPayload = 0
		t.dropConnLocked(tc)
		tc.mu.Unlock()
		select {
		case tc.kick <- struct{}{}:
		default:
		}
		tc.closeDead()
	}
	t.rdMu.Lock()
	for key := range t.streams {
		if cr, ok := commRanks[uint32(key[0])]; ok && key[1] == cr {
			delete(t.streams, key)
		}
	}
	t.rdMu.Unlock()
}

func (t *tcpTransport) recv(r int) (frame, bool) {
	if t.inboxes[r] == nil {
		return frame{}, false // remote rank of a distributed world
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	default:
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	case <-t.done:
		return frame{}, false
	}
}

func (t *tcpTransport) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true // new sends fail fast from here on
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, tc := range t.conns {
		conns = append(conns, tc)
	}
	t.mu.Unlock()
	// Drain barrier: a send that returned success promised delivery, but
	// with the async engine its frame may still sit in a batch or an
	// in-flight flush. Wait until every writer has nothing left — or has
	// hit a sticky verdict, whose frames are undeliverable anyway.
	// This preserves the synchronous transport's contract that close()
	// never abandons acknowledged sends on the healthy path. The wait is
	// bounded: a writer can be wedged mid-write toward a peer that died
	// without closing its socket (full TCP window, nobody reading), and
	// only severing the socket below can unwedge it.
	deadline := time.Now().Add(tcpDrainBound)
	for _, tc := range conns {
		tc.mu.Lock()
		for (tc.batchFrames > 0 || tc.flushing) && tc.err == nil && !tc.stopped &&
			time.Now().Before(deadline) {
			tc.mu.Unlock()
			time.Sleep(500 * time.Microsecond)
			tc.mu.Lock()
		}
		tc.mu.Unlock()
	}
	t.mu.Lock()
	t.torndown = true
	t.conns = map[int]*tcpConn{}
	outbound := make([]net.Conn, 0, len(t.outbound))
	for c := range t.outbound {
		outbound = append(outbound, c)
	}
	t.outbound = map[net.Conn]struct{}{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	close(t.done)
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	// Severing the sockets makes any in-flight flush fail into its retry
	// loop, which observes done/closed and returns ErrClosed; un-flushed
	// batches die with the world, like any frame still in an inbox. Each
	// connection's writer goroutine exits the same way — its idle wait and
	// its retry backoff both select on done — so the Wait below covers
	// them alongside the accept/read loops.
	for _, c := range outbound {
		c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	// Aborting the rings is the shm twin of severing the sockets: blocked
	// producers fail into ErrClosed, ring readers see io.EOF, and — like a
	// severed socket's in-flight bytes — undelivered ring residue dies
	// with the world. Unmapping waits for wg so no goroutine can touch a
	// dead mapping; an in-process world also owns its segment directory
	// and removes it here.
	rings := t.shm.rings()
	for _, r := range rings {
		r.abort()
	}
	t.wg.Wait()
	for _, r := range rings {
		r.unmap()
	}
	if t.shm != nil && t.shm.ownDir {
		os.RemoveAll(t.shm.dir)
	}
}
