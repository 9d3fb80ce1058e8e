package hrpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"datampi/internal/mpi"
	"datampi/internal/netsim"
)

func echoHandler(method string, args []byte) ([]byte, error) {
	switch method {
	case "echo":
		return args, nil
	case "fail":
		return nil, errors.New("handler failure")
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func TestCallFrameRoundTrip(t *testing.T) {
	f := func(id uint32, method string, args []byte) bool {
		if len(method) > 60000 {
			method = method[:60000]
		}
		frame := encodeCall(call{id: id, method: method, args: args})
		c, err := decodeCall(frame)
		return err == nil && c.id == id && c.method == method && bytes.Equal(c.args, args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	frame := encodeReply(42, []byte("value"), "")
	id, v, err := decodeReply(frame)
	if err != nil || id != 42 || string(v) != "value" {
		t.Errorf("got %d %q %v", id, v, err)
	}
	frame = encodeReply(7, nil, "boom")
	id, _, err = decodeReply(frame)
	if id != 7 || err == nil || err.Error() != "boom" {
		t.Errorf("error reply: %d %v", id, err)
	}
}

func TestHadoopRPCEcho(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialHadoop(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*37)
		got, err := cl.Call("echo", payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("call %d mismatch", i)
		}
	}
}

func TestHadoopRPCHandlerError(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialHadoop(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call("fail", nil); err == nil || err.Error() != "handler failure" {
		t.Errorf("got %v", err)
	}
	// Connection still usable after an error reply.
	if got, err := cl.Call("echo", []byte("ok")); err != nil || string(got) != "ok" {
		t.Errorf("after error: %q %v", got, err)
	}
}

func TestHadoopRPCConcurrentClients(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialHadoop(srv.Addr(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				want := []byte(fmt.Sprintf("c%d-%d", c, i))
				got, err := cl.Call("echo", want)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("client %d call %d: %q %v", c, i, got, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestHadoopRPCConcurrentCallsOneConn(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialHadoop(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("m%d", i))
			got, err := cl.Call("echo", want)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("call %d: %q %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestHadoopRPCLinkAccounting(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	link := netsim.NewLink(netsim.Unlimited)
	cl, err := DialHadoop(srv.Addr(), link)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call("echo", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	s := link.Stats()
	if s.PayloadBytes != 200 { // 100 up + 100 down
		t.Errorf("payload = %d, want 200", s.PayloadBytes)
	}
	if s.OverheadBytes == 0 || s.RoundTrips != 1 {
		t.Errorf("overhead=%d trips=%d", s.OverheadBytes, s.RoundTrips)
	}
}

func TestMPIRPCEcho(t *testing.T) {
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ServeMPI(w.Comm(0), echoHandler)
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl := NewMPIClient(w.Comm(r), 0)
			for i := 0; i < 30; i++ {
				want := []byte(fmt.Sprintf("r%d-%d", r, i))
				got, err := cl.Call("echo", want)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("rank %d call %d: %q %v", r, i, got, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestMPIRPCHandlerError(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ServeMPI(w.Comm(0), echoHandler)
	cl := NewMPIClient(w.Comm(1), 0)
	if _, err := cl.Call("fail", nil); err == nil || err.Error() != "handler failure" {
		t.Errorf("got %v", err)
	}
	if got, err := cl.Call("echo", []byte("ok")); err != nil || string(got) != "ok" {
		t.Errorf("after error: %q %v", got, err)
	}
}

func TestMPIRPCOverTCPTransport(t *testing.T) {
	w, err := mpi.NewWorld(2, mpi.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ServeMPI(w.Comm(0), echoHandler)
	cl := NewMPIClient(w.Comm(1), 0)
	payload := bytes.Repeat([]byte("x"), 4096)
	got, err := cl.Call("echo", payload)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("tcp echo failed: %v", err)
	}
}

func TestHadoopRPCTimeout(t *testing.T) {
	block := make(chan struct{})
	srv, err := NewHadoopServer(func(method string, args []byte) ([]byte, error) {
		if method == "slow" {
			<-block
		}
		return args, nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)
	cl, err := DialHadoop(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(30 * time.Millisecond)
	if _, err := cl.Call("slow", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// Fast calls still work after a timed-out one.
	cl.SetTimeout(5 * time.Second)
	if got, err := cl.Call("echo", []byte("x")); err != nil || string(got) != "x" {
		t.Errorf("after timeout: %q %v", got, err)
	}
}

// Closing the server while clients keep calling must neither race a
// reader's enqueue against the close of the call queue nor strand a call:
// every call returns, with its reply or a connection error.
func TestHadoopServerCloseDuringCalls(t *testing.T) {
	srv, err := NewHadoopServer(echoHandler, 2)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*HadoopClient
	for c := 0; c < 4; c++ {
		cl, err := DialHadoop(srv.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetTimeout(10 * time.Second)
		clients = append(clients, cl)
	}
	started := make(chan struct{}, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *HadoopClient) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 10 {
					started <- struct{}{}
				}
				want := []byte(fmt.Sprintf("c%d-%d", c, i))
				got, err := cl.Call("echo", want)
				if errors.Is(err, ErrTimeout) {
					t.Errorf("client %d call %d stranded", c, i)
					return
				}
				if err != nil {
					return // the server went away
				}
				if !bytes.Equal(got, want) {
					t.Errorf("client %d call %d: got %q", c, i, got)
					return
				}
			}
		}(c, cl)
	}
	for range clients {
		<-started
	}
	srv.Close()
	wg.Wait()
}
