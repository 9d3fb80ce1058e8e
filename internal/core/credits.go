package core

import (
	"encoding/binary"
	"errors"
	"sync"

	"datampi/internal/mpi"
)

// Credit-based flow control for the Streaming data plane: every directed
// (sender process, receiver process) pair owns a window of record credits
// (Hooks.streamCredits, 4096 records). The transmit stage acquires one credit per
// record before the transport send and blocks when the window is empty;
// the receiving side grants credits back as the stream consumers drain
// their channels, batching grants into quantum-sized frames on tagCredit.
// Because a sealed streaming SPL buffer is additionally capped at half the
// window (spl.maxRecords), a single frame can never demand more credits
// than the window holds, and because the grant quantum is a quarter of the
// window, a fully-drained receiver always leaves the sender at least half
// a window of headroom — so the loop cannot deadlock. End-of-phase
// markers, reverse traffic and blob chunks ride outside the window.
//
// Grant frames are cumulative adds — commutative and order-independent
// (CRDT-style) — so transport-level delay or reordering of grants slows
// the sender down but can never corrupt the window.

// tagCredit carries grant frames (8-byte big-endian record counts). It
// sits between tagData and tagFetchReq in the data-plane tag space.
const tagCredit = 101

var errMalformedGrant = errors.New("core: malformed credit grant frame")

// creditGate is the sender side of one pair's window.
type creditGate struct {
	mu    sync.Mutex
	avail int64
	wait  chan struct{} // non-nil while a sender is blocked; closed on refill
}

// creditState holds both halves of a process's credit accounting: the
// per-destination sender gates, and the receiver-side ledger mapping
// consumed records back to the processes that sent them.
type creditState struct {
	window  int64
	quantum int64
	gates   []creditGate

	mu      sync.Mutex
	batches map[int][]creditBatch // partition -> FIFO of delivered batches
	pending []int64               // per source proc: consumed, not yet granted
}

// creditBatch is one delivered frame's worth of records awaiting
// consumption. The stream channel is FIFO, so consumption maps onto the
// batch queue in delivery order.
type creditBatch struct {
	src int
	n   int64
}

func newCreditState(procs int, window int64) *creditState {
	cs := &creditState{
		window:  window,
		quantum: window / 4,
		gates:   make([]creditGate, procs),
		batches: make(map[int][]creditBatch),
		pending: make([]int64, procs),
	}
	if cs.quantum < 1 {
		cs.quantum = 1
	}
	for i := range cs.gates {
		cs.gates[i].avail = window
	}
	return cs
}

// acquireCredits blocks until n credits toward dst are available, then
// takes them. It returns only on success or job abort; a destination that
// dies mid-wait is unblocked by resetCredits from the rejoin path (the
// subsequent transport send observes ErrRankDead and takes the durable-
// drop path).
func (p *process) acquireCredits(dst int, n int64) error {
	cs := p.credits
	if n > cs.window {
		n = cs.window // replayed frames from a larger-window run still fit
	}
	g := &cs.gates[dst]
	stalled := false
	for {
		g.mu.Lock()
		if g.avail >= n {
			g.avail -= n
			maxInt64(&p.rt.ctrs.streamMaxOutstanding, cs.window-g.avail)
			g.mu.Unlock()
			return nil
		}
		if g.wait == nil {
			g.wait = make(chan struct{})
		}
		ch := g.wait
		g.mu.Unlock()
		if !stalled {
			stalled = true
			p.rt.ctrs.streamCreditStalls.Add(1)
		}
		select {
		case <-ch:
		case <-p.rt.aborted:
			return p.rt.err()
		}
	}
}

// addCredits returns n credits for dst (a grant frame arrived, or a frame
// bound for a dead rank was dropped at the sender) and wakes any waiter.
func (p *process) addCredits(dst int, n int64) {
	g := &p.credits.gates[dst]
	g.mu.Lock()
	g.avail += n
	if g.avail > p.credits.window {
		g.avail = p.credits.window
	}
	if g.wait != nil {
		close(g.wait)
		g.wait = nil
	}
	g.mu.Unlock()
}

// resetCredits refills the gate toward a respawned rank. The replacement
// process starts with empty queues and a fresh ledger, so the full window
// is the correct sender-side view; it also unblocks a transmit stage
// caught waiting on credits the dead incarnation can no longer grant —
// which must happen before the rejoin barrier flushes the send queue.
func (p *process) resetCredits(dst int) {
	if p.credits == nil || dst < 0 || dst >= len(p.credits.gates) {
		return
	}
	g := &p.credits.gates[dst]
	g.mu.Lock()
	g.avail = p.credits.window
	if g.wait != nil {
		close(g.wait)
		g.wait = nil
	}
	g.mu.Unlock()
}

// creditNote records one delivered frame on the receiver ledger so the
// consumer's creditConsume calls can be attributed back to src.
func (p *process) creditNote(partition, src int, n int64) {
	if n <= 0 {
		return
	}
	cs := p.credits
	cs.mu.Lock()
	cs.batches[partition] = append(cs.batches[partition], creditBatch{src: src, n: n})
	cs.mu.Unlock()
}

// creditConsume accounts one record drained from partition's stream
// channel, granting a batch of credits back to the sender once a quantum
// accumulates. The grant send happens outside the ledger lock.
func (p *process) creditConsume(partition int) {
	cs := p.credits
	grantSrc, grantN := -1, int64(0)
	cs.mu.Lock()
	if q := cs.batches[partition]; len(q) > 0 {
		b := &q[0]
		src := b.src
		b.n--
		if b.n == 0 {
			cs.batches[partition] = q[1:]
		}
		cs.pending[src]++
		if cs.pending[src] >= cs.quantum {
			grantSrc, grantN = src, cs.pending[src]
			cs.pending[src] = 0
		}
	}
	cs.mu.Unlock()
	if grantSrc >= 0 {
		p.sendGrant(grantSrc, grantN)
	}
}

// creditRefund grants a whole frame's records straight back to src —
// frames the receiver discards without delivering (replayed duplicates
// after a partial restart, frames landing after stream close) would
// otherwise leak their credits and stall the sender.
func (p *process) creditRefund(src int, n int64) {
	if n > 0 {
		p.sendGrant(src, n)
	}
}

// sendGrant ships one grant frame. A failed send is dropped: the peer is
// dying (abort unblocks its waiters) or being replaced (resetCredits
// refills its view).
func (p *process) sendGrant(dst int, n int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	if err := p.comm.Send(dst, tagCredit, b[:]); err != nil {
		return
	}
	p.rt.ctrs.streamCreditsGranted.Add(n)
}

// creditReceiver is the dedicated reader for grant frames; like the data
// receiver it exits when the world closes.
func (p *process) creditReceiver() {
	defer p.wg.Done()
	for {
		b, st, err := p.comm.Recv(mpi.AnySource, tagCredit)
		if err != nil {
			return
		}
		if len(b) != 8 {
			p.fail(errMalformedGrant)
			return
		}
		p.addCredits(st.Source, int64(binary.BigEndian.Uint64(b)))
	}
}
