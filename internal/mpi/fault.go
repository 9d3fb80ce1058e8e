package mpi

import (
	"sync"
	"time"

	"datampi/internal/fault"
)

// faultTransport composes a fault.Injector over any inner transport. Every
// send is submitted to the injector; the verdict is applied here: drops
// vanish, delays and reorders ride a per-(src,dst) delivery queue that
// preserves pair ordering (so a delay models link latency, not corruption),
// duplicates are enqueued twice, resets tear down the inner connection
// just before the write, and rank death fails the operation with
// ErrRankDead.
//
// Delivery through the pair queues is asynchronous, which is within the
// MPI standard-mode send contract the library already exposes (a send may
// return once the message is buffered).
type faultTransport struct {
	inner transport
	inj   *fault.Injector

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu     sync.Mutex
	queues map[[2]int]chan queuedFrame
	closed bool
}

type queuedFrame struct {
	f       frame
	latency time.Duration
	reorder bool
	reset   bool
}

// connResetter is implemented by transports with per-destination
// connection state (TCP); the fault layer uses it to inject connection
// resets.
type connResetter interface {
	resetConn(dst int)
}

func newFaultTransport(inner transport, inj *fault.Injector) *faultTransport {
	return &faultTransport{
		inner:  inner,
		inj:    inj,
		done:   make(chan struct{}),
		queues: make(map[[2]int]chan queuedFrame),
	}
}

func (t *faultTransport) send(src, dst int, f frame) error {
	act := t.inj.OnSend(src, dst)
	if act.SrcDead {
		return ErrRankDead
	}
	if act.DstDead {
		// A dead peer: a real transport would discover this through its
		// bounded retry; surface the same signal immediately.
		return ErrRankDead
	}
	if act.Drop {
		return nil // lost on the wire
	}
	q, err := t.queue(src, dst)
	if err != nil {
		return err
	}
	// The pair queue retains the frame past this call (delivery is
	// asynchronous), so take the ownership copy here per transport.send's
	// contract — the inner transport sees the copy, never the caller's
	// buffer.
	if f.data != nil {
		f.data = append([]byte(nil), f.data...)
	}
	qf := queuedFrame{f: f, latency: act.Latency, reorder: act.Reorder, reset: act.Reset}
	n := 1
	if act.Duplicate {
		n = 2
	}
	for i := 0; i < n; i++ {
		select {
		case q <- qf:
		case <-t.done:
			return ErrClosed
		}
	}
	return nil
}

// queue returns (creating if needed) the ordered delivery queue for a pair.
func (t *faultTransport) queue(src, dst int) (chan queuedFrame, error) {
	key := [2]int{src, dst}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	q := t.queues[key]
	if q == nil {
		q = make(chan queuedFrame, 256)
		t.queues[key] = q
		t.wg.Add(1)
		go t.pairWorker(src, dst, q)
	}
	return q, nil
}

// pairWorker delivers one pair's frames in order, applying latency,
// reorder holds, and connection resets. A reordered frame is held back and
// delivered after its successor (or after a short idle flush, so the last
// frame on a link is never held forever).
func (t *faultTransport) pairWorker(src, dst int, q chan queuedFrame) {
	defer t.wg.Done()
	var held *queuedFrame
	deliver := func(qf queuedFrame) {
		if qf.latency > 0 {
			tm := time.NewTimer(qf.latency)
			select {
			case <-tm.C:
			case <-t.done:
				tm.Stop()
				return
			}
		}
		if qf.reset {
			if rc, ok := t.inner.(connResetter); ok {
				rc.resetConn(dst)
			}
		}
		if t.inj.Dead(dst) || t.inj.Dead(src) {
			return // died while in flight: the frame is lost
		}
		// Delivery errors have no sender to report to (the send already
		// returned, as with a real buffered transport); the frame is lost,
		// which is exactly what chaos testing wants to exercise.
		_ = t.inner.send(src, dst, qf.f)
	}
	for {
		if held != nil {
			// Flush a held (reordered) frame once the link goes idle.
			tm := time.NewTimer(2 * time.Millisecond)
			select {
			case qf, ok := <-q:
				tm.Stop()
				if !ok {
					deliver(*held)
					return
				}
				deliver(qf)
				deliver(*held)
				held = nil
			case <-tm.C:
				deliver(*held)
				held = nil
			case <-t.done:
				tm.Stop()
				return
			}
			continue
		}
		select {
		case qf, ok := <-q:
			if !ok {
				return
			}
			if qf.reorder {
				qf.reorder = false
				held = &qf
				continue
			}
			deliver(qf)
		case <-t.done:
			return
		}
	}
}

func (t *faultTransport) recv(r int) (frame, bool) {
	return t.inner.recv(r)
}

func (t *faultTransport) stats() Stats {
	return t.inner.stats()
}

func (t *faultTransport) close() {
	t.once.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		close(t.done)
		t.wg.Wait()
		t.inner.close()
	})
}
