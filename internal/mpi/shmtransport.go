package mpi

// Glue between the shm rings and the TCP transport's progress engine.
// The engine is unchanged above the flush boundary: send() deposits
// frames into per-connection batches, connWriter swaps and drains them —
// but a connection whose destination shares this host binds an outgoing
// ring at creation, and flushBuf hands the swapped-out batch to
// flushShm instead of net.Buffers. Everything the engine guarantees
// (per-stream seq, exactly-once, mux-style demux, the close drain
// barrier) rides along because the ring carries the identical byte
// stream a socket would.

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// shmState is one transport's view of the shared-memory layer: which
// ranks are reachable over rings, and the mapped segments themselves.
type shmState struct {
	dir     string
	ownDir  bool // transport created dir (in-process world): removed on close
	ringSrc int  // src index in ring names: self in a distributed world, 0 in-process
	peers   []atomic.Bool
	c       shmCounters

	mu      sync.Mutex
	out     map[int]*shmRing
	in      map[int]*shmRing
	counted map[int]bool // out rings already charged to the conns counter
}

// outRing resolves the ring carrying traffic toward dst, nil when the
// pair is TCP. Bound once per tcpConn at creation; the first binding of a
// destination charges the mpi.shm.conns counter.
func (s *shmState) outRing(dst int) *shmRing {
	if s == nil || dst >= len(s.peers) || !s.peers[dst].Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.out[dst]
	if r != nil && !s.counted[dst] {
		s.counted[dst] = true
		s.c.conns.Add(1)
	}
	return r
}

// retireRank demotes a rank pair to TCP: replaceRank calls it when a
// respawned process takes over a rank. The replacement's rings hold the
// dead incarnation's residue (cursors mid-stream, possibly undelivered
// frames whose sequence numbers belong to retired streams), so the pair
// falls back to TCP for the rest of the world's life — correctness over
// the fast path, exactly like the conn retirement it accompanies.
func (s *shmState) retireRank(rank int) {
	if s == nil || rank >= len(s.peers) {
		return
	}
	s.peers[rank].Store(false)
	s.mu.Lock()
	out, in := s.out[rank], s.in[rank]
	s.mu.Unlock()
	if out != nil {
		out.abort()
	}
	if in != nil {
		in.abort()
	}
}

// rings returns every distinct mapped segment (in-process worlds share
// one object per pair for both directions).
func (s *shmState) rings() []*shmRing {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[*shmRing]bool, len(s.out)+len(s.in))
	var out []*shmRing
	for _, m := range []map[int]*shmRing{s.out, s.in} {
		for _, r := range m {
			if r != nil && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// setupShmLocal wires an in-process world (every rank in this process,
// trivially same-host) for shm: a private segment directory with one ring
// per destination rank, the same mapping serving as that rank's inbound
// ring. Failure leaves the transport shm-free and is returned — WithShm
// is an explicit opt-in, so a world that cannot honor it should say so
// rather than silently run over loopback.
func (t *tcpTransport) setupShmLocal() error {
	dir, err := NewShmDir(ShmBaseDir())
	if err != nil {
		return fmt.Errorf("mpi: shm segments: %w", err)
	}
	s := &shmState{
		dir:     dir,
		ownDir:  true,
		peers:   make([]atomic.Bool, t.n),
		out:     make(map[int]*shmRing, t.n),
		in:      make(map[int]*shmRing, t.n),
		counted: make(map[int]bool, t.n),
	}
	fail := func(err error) error {
		for _, r := range s.rings() {
			r.abort()
			r.unmap()
		}
		os.RemoveAll(dir)
		return err
	}
	for r := 0; r < t.n; r++ {
		p := shmRingPath(dir, 0, r)
		if err := createShmRing(p, defaultShmRingBytes); err != nil {
			return fail(err)
		}
		ring, err := openShmRing(p, &s.c)
		if err != nil {
			return fail(err)
		}
		s.out[r] = ring
		s.in[r] = ring
		s.peers[r].Store(true)
	}
	t.shm = s
	for r := 0; r < t.n; r++ {
		t.wg.Add(1)
		go t.shmReadLoop(r, s.in[r])
	}
	return nil
}

// setupShmDist selects shm pairs for one process of a distributed world.
// descs are the raw directory descriptors; a peer is shm-reachable iff
// its advertised host identity equals the identity this process derives
// from the launcher's segment directory — the boot-id/nonce handshake
// that makes "we can read the same directory" mean "we share a kernel".
// Any failure (unreadable directory, missing rings) degrades that pair —
// or the whole layer — to TCP: selection must never break a world that
// plain sockets could carry.
func (t *tcpTransport) setupShmDist(descs []string) {
	own, err := ShmHostID(t.eng.shmDir)
	if err != nil || own == "" {
		return
	}
	s := &shmState{
		dir:     t.eng.shmDir,
		ringSrc: t.self,
		peers:   make([]atomic.Bool, t.n),
		out:     make(map[int]*shmRing),
		in:      make(map[int]*shmRing),
		counted: make(map[int]bool),
	}
	for d := 0; d < t.n; d++ {
		hid := own // self: our own directory, by definition matching
		if d != t.self {
			_, hid = parseShmAddr(descs[d])
		}
		if hid != own {
			continue
		}
		out, err := openShmRing(shmRingPath(s.dir, t.self, d), &s.c)
		if err != nil {
			continue
		}
		in, err := openShmRing(shmRingPath(s.dir, d, t.self), &s.c)
		if err != nil {
			out.abort()
			out.unmap()
			continue
		}
		s.out[d], s.in[d] = out, in
		s.peers[d].Store(true)
	}
	if len(s.in) == 0 {
		return
	}
	t.shm = s
	for d := range s.in {
		t.wg.Add(1)
		go t.shmReadLoop(t.self, s.in[d])
	}
}

// shmReadLoop is the ring-side twin of readLoop: one goroutine per
// inbound ring pulls frames off the shared memory and admits them through
// the same per-stream reorderer the socket path uses, so shm and TCP
// frames interleave into one exactly-once world. r is the receiving world
// rank (the ring's consumer).
func (t *tcpTransport) shmReadLoop(r int, ring *shmRing) {
	defer t.wg.Done()
	for {
		f, err := readFrame(ring)
		if err != nil {
			return // ring stopped (close or rank replacement)
		}
		if !t.deliver(r, f) {
			return
		}
	}
}

// flushShm ships one swapped-out batch through tc's ring — the shm twin
// of the socket write in flushBuf. No retry ladder: a ring write cannot
// fail transiently (there is no wire to reset), so the only failures are
// shutdown, retirement, and a consumer that stopped draining — and the
// last one IS the same-host failure detector, turned directly into the
// sticky dead-rank verdict TCP reaches after exhausting its redials.
func (t *tcpTransport) flushShm(tc *tcpConn, buf []byte, frames int, payload int64) error {
	cancel := func() error {
		select {
		case <-t.done:
			return ErrClosed
		default:
		}
		tc.mu.Lock()
		stopped := tc.stopped
		tc.mu.Unlock()
		if stopped {
			return errShmRetired
		}
		return nil
	}
	err := tc.ring.write(buf, t.sendTimeout, cancel)
	switch {
	case err == nil:
		t.framesSent.Add(int64(frames))
		t.bytesSent.Add(payload)
		if frames > 1 {
			t.coalesceBatches.Add(1)
		}
		return nil
	case err == errShmRetired:
		return nil // the writer loop observes tc.stopped and exits
	case err == ErrClosed:
		return ErrClosed
	}
	tc.mu.Lock()
	tc.err = fmt.Errorf("mpi: shm send to rank %d (%v): %w", tc.dst, err, ErrRankDead)
	tc.batch, tc.batchFrames, tc.batchPayload = nil, 0, 0
	verdict := tc.err
	tc.mu.Unlock()
	tc.closeDead()
	return verdict
}
