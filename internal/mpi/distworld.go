package mpi

import (
	"fmt"
	"net"
)

// A distributed world is the cross-process variant of NewWorld: every OS
// process calls JoinWorld with the same size and address directory but
// its own rank, and the resulting Worlds exchange frames over real TCP
// between processes. Communicator ids are assigned by local call
// sequence, so as long as every process performs the same NewComm /
// NewIntercomm calls in the same order (the mpidrun master and workers
// do), handles line up across processes without any extra negotiation.

// Endpoint is a pre-opened transport listener. Opening the listener
// before the world exists lets a worker advertise its address during the
// rendezvous, then hand the same socket to JoinWorld — no window where a
// peer could dial an address nobody is bound to.
type Endpoint struct {
	ln net.Listener
}

// ListenEndpoint opens a loopback transport endpoint on an ephemeral
// port.
func ListenEndpoint() (*Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mpi: endpoint listen: %w", err)
	}
	return &Endpoint{ln: ln}, nil
}

// Addr returns the endpoint's dialable address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Close releases the endpoint; only needed when it was never passed to
// JoinWorld (which takes ownership of the socket).
func (e *Endpoint) Close() error { return e.ln.Close() }

// JoinWorld creates this process's member of a distributed world of n
// ranks: rank self is hosted here on ep's listener, and addrs maps every
// world rank (including self) to its transport address, as exchanged by
// the rendezvous. Only rank self's Comm handles are usable in this
// process; handles for remote ranks exist (the communicator bookkeeping
// is identical to NewWorld's) but must not be driven locally.
//
// The world always uses the TCP transport — WithTCP is implied — and
// fault injection (WithFaults) is rejected: the injector is an
// in-process device, while real process death is reported from outside
// via DeclareDead.
func JoinWorld(n, self int, ep *Endpoint, addrs []string, opts ...Option) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", n)
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("mpi: joining rank %d of world size %d", self, n)
	}
	if ep == nil {
		return nil, fmt.Errorf("mpi: joining rank %d: nil endpoint", self)
	}
	if len(addrs) != n {
		return nil, fmt.Errorf("mpi: directory has %d addresses for world size %d", len(addrs), n)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.inj != nil {
		return nil, fmt.Errorf("mpi: fault injection is in-process only; use DeclareDead for real process death")
	}
	tr, err := newDistTCPTransport(n, self, ep.ln, addrs, cfg.link, cfg.sendTimeout, cfg.onRetry, cfg.eng)
	if err != nil {
		return nil, err
	}
	local := make([]bool, n)
	local[self] = true
	w := &World{
		size:   n,
		tr:     tr,
		local:  local,
		comms:  make(map[uint32][]*Comm),
		early:  make(map[uint32][]earlyFrame),
		nextID: 1,
	}
	w.initChunking(cfg.eng)
	w.procs = make([]*proc, n)
	for i := 0; i < n; i++ {
		w.procs[i] = &proc{world: w, rank: i}
	}
	// World communicator gets id 0, as in NewWorld.
	w.makeComm(0, identityRanks(n))
	w.closeWG.Add(1)
	go w.route(self)
	return w, nil
}

// DeclareDead marks a world rank as failed from outside the transport: a
// process launcher calls it when a worker OS process exits, so receivers
// blocked on that peer fail with ErrRankDead instead of waiting out
// their deadlines. It is the cross-process analogue of the fault
// injector's kill notification and is safe to call at any time, on any
// world.
func (w *World) DeclareDead(worldRank int) { w.markDead(worldRank) }
