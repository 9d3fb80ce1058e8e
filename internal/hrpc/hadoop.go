package hrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"datampi/internal/netsim"
)

// HadoopServer is a Hadoop-1.x-style RPC server: a listener accepts
// connections, per-connection readers decode calls into a shared call
// queue, a pool of handler goroutines executes them, and a responder
// queue per connection writes replies — the Listener/Reader/Handler/
// Responder pipeline of org.apache.hadoop.ipc.Server. The queue hand-offs
// are part of the latency the paper measures.
type HadoopServer struct {
	ln       net.Listener
	handler  Handler
	calls    chan serverCall
	mu       sync.Mutex
	closed   bool
	quit     chan struct{} // closed by Close: unblocks readers enqueueing calls
	senders  sync.WaitGroup
	wg       sync.WaitGroup
	handlers int
}

type serverCall struct {
	c    call
	resp chan<- []byte   // the connection's responder queue
	gone <-chan struct{} // closed once the connection's responder stops
}

// NewHadoopServer starts a server on a loopback port with the given number
// of handler goroutines (Hadoop's dfs/ipc "handler count").
func NewHadoopServer(handler Handler, handlers int) (*HadoopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if handlers <= 0 {
		handlers = 1
	}
	s := &HadoopServer{
		ln:       ln,
		handler:  handler,
		calls:    make(chan serverCall, 128),
		quit:     make(chan struct{}),
		handlers: handlers,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	for i := 0; i < handlers; i++ {
		s.wg.Add(1)
		go s.handlerLoop()
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *HadoopServer) Addr() string { return s.ln.Addr().String() }

func (s *HadoopServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *HadoopServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	// Validate the connection preamble.
	hdr := make([]byte, len(connectionHeader))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != string(connectionHeader) {
		return
	}
	// The responder queue is never closed: handlers may still be running
	// calls from this connection when its reader stops, so they select on
	// gone instead.
	resp := make(chan []byte, 128)
	gone := make(chan struct{})
	done := make(chan struct{})
	// Responder: serializes replies for this connection.
	go func() {
		defer close(done)
		bw := bufio.NewWriter(conn)
		for {
			select {
			case frame := <-resp:
				if err := writeReply(bw, frame); err != nil {
					conn.Close() // stop the reader too
					return
				}
			case <-gone:
				return
			}
		}
	}()
	defer func() {
		close(gone)
		conn.Close() // unblock a responder stuck writing
		<-done
	}()
	for {
		var l [4]byte
		if _, err := io.ReadFull(br, l[:]); err != nil {
			return
		}
		frame := make([]byte, binary.BigEndian.Uint32(l[:]))
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		c, err := decodeCall(frame)
		if err != nil {
			return
		}
		if !s.enqueue(serverCall{c: c, resp: resp, gone: gone}) {
			return
		}
	}
}

// writeReply writes one length-prefixed reply frame and flushes it.
func writeReply(bw *bufio.Writer, frame []byte) error {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(frame)))
	if _, err := bw.Write(l[:]); err != nil {
		return err
	}
	if _, err := bw.Write(frame); err != nil {
		return err
	}
	return bw.Flush()
}

// enqueue hands a call to the handler pool, reporting false once the
// server is closed. Close waits for every enqueue in flight before it
// closes the call queue, so no send can race that close.
func (s *HadoopServer) enqueue(sc serverCall) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.senders.Add(1)
	s.mu.Unlock()
	defer s.senders.Done()
	select {
	case s.calls <- sc:
		return true
	case <-s.quit:
		return false
	}
}

func (s *HadoopServer) handlerLoop() {
	defer s.wg.Done()
	for sc := range s.calls {
		value, err := s.handler(sc.c.method, sc.c.args)
		var frame []byte
		if err != nil {
			frame = encodeReply(sc.c.id, nil, err.Error())
		} else {
			frame = encodeReply(sc.c.id, value, "")
		}
		select {
		case sc.resp <- frame:
		case <-sc.gone: // the connection closed while the call ran
		}
	}
}

// Close stops the server. Calls already queued still run.
func (s *HadoopServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	s.mu.Unlock()
	err := s.ln.Close()
	s.senders.Wait()
	close(s.calls)
	return err
}

// HadoopClient is a Hadoop-style RPC client over one TCP connection,
// supporting concurrent calls matched by call id and an optional per-call
// timeout (Hadoop's ipc.client.timeout).
type HadoopClient struct {
	conn    net.Conn
	bw      *bufio.Writer
	link    *netsim.Link
	timeout time.Duration

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan []byte
	err     error
}

// SetTimeout bounds every subsequent Call; zero disables the bound.
func (c *HadoopClient) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// ErrTimeout is returned when a call exceeds the configured timeout.
var ErrTimeout = errors.New("hrpc: call timed out")

// DialHadoop connects to a HadoopServer. If link is non-nil every call's
// bytes are charged to it.
func DialHadoop(addr string, link *netsim.Link) (*HadoopClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &HadoopClient{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		link:    link,
		pending: make(map[uint32]chan []byte),
	}
	if _, err := conn.Write(connectionHeader); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *HadoopClient) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		var l [4]byte
		if _, err := io.ReadFull(br, l[:]); err != nil {
			c.fail(err)
			return
		}
		frame := make([]byte, binary.BigEndian.Uint32(l[:]))
		if _, err := io.ReadFull(br, frame); err != nil {
			c.fail(err)
			return
		}
		id, _, _ := decodeReply(frame)
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- frame
		}
	}
}

func (c *HadoopClient) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// Call performs one RPC and returns the response value.
func (c *HadoopClient) Call(method string, args []byte) ([]byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	frame := encodeCall(call{id: id, method: method, args: args})
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(frame)))
	_, err := c.bw.Write(l[:])
	if err == nil {
		_, err = c.bw.Write(frame)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if c.link != nil {
		// Request bytes + one round trip; the response is charged below.
		c.link.Transfer(int64(len(args)), int64(len(frame)-len(args))+4+40, 1)
	}
	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
	var respFrame []byte
	var ok bool
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case respFrame, ok = <-ch:
		case <-timer.C:
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return nil, ErrTimeout
		}
	} else {
		respFrame, ok = <-ch
	}
	if !ok {
		return nil, fmt.Errorf("hrpc: connection lost: %w", c.connErr())
	}
	_, value, err := decodeReply(respFrame)
	if err != nil {
		return nil, err
	}
	if c.link != nil {
		c.link.Transfer(int64(len(value)), int64(len(respFrame)-len(value))+4+40, 0)
	}
	return value, nil
}

func (c *HadoopClient) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the client connection.
func (c *HadoopClient) Close() error { return c.conn.Close() }
