package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// joinTestWorlds builds an n-rank distributed world entirely inside this
// test process: n Worlds, each hosting one rank, wired through real TCP
// sockets exactly as n separate OS processes would be. This exercises
// the full cross-process data path (dial-by-directory, framing, stream
// sequencing) without os/exec, so it can run under -race.
func joinTestWorlds(t *testing.T, n int, opts ...Option) []*World {
	t.Helper()
	eps := make([]*Endpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := ListenEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	worlds := make([]*World, n)
	for i := range worlds {
		w, err := JoinWorld(n, i, eps[i], addrs, opts...)
		if err != nil {
			t.Fatalf("JoinWorld rank %d: %v", i, err)
		}
		worlds[i] = w
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

func TestDistWorldSendRecv(t *testing.T) {
	worlds := joinTestWorlds(t, 3)
	// Each rank sends one tagged message to every other rank, through its
	// own world's handle — frames cross real sockets between the worlds.
	var wg sync.WaitGroup
	for src := 0; src < 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			c := worlds[src].Comm(src)
			for dst := 0; dst < 3; dst++ {
				if dst == src {
					continue
				}
				if err := c.Send(dst, 7, []byte(fmt.Sprintf("%d->%d", src, dst))); err != nil {
					t.Errorf("send %d->%d: %v", src, dst, err)
				}
			}
		}(src)
	}
	for dst := 0; dst < 3; dst++ {
		c := worlds[dst].Comm(dst)
		for i := 0; i < 2; i++ {
			data, st, err := c.RecvTimeout(AnySource, 7, 5*time.Second)
			if err != nil {
				t.Fatalf("recv at %d: %v", dst, err)
			}
			if want := fmt.Sprintf("%d->%d", st.Source, dst); string(data) != want {
				t.Fatalf("recv at %d: got %q from %d", dst, data, st.Source)
			}
		}
	}
	wg.Wait()
	if !worlds[0].Local(0) || worlds[0].Local(1) {
		t.Fatal("Local() wrong for distributed world")
	}
}

// Communicator ids are assigned by local call sequence, so every process
// creating the same communicators in the same order yields aligned
// handles — the property the distributed runtime depends on.
func TestDistWorldCommAlignment(t *testing.T) {
	worlds := joinTestWorlds(t, 3)
	// Same sequence in each world: a sub-comm over {2,0}, then an
	// intercomm {2} x {0,1}.
	subs := make([]*Comm, 3)
	ics := make([][]*Intercomm, 3)
	for i, w := range worlds {
		sub, err := w.NewComm([]int{2, 0})
		if err != nil {
			t.Fatal(err)
		}
		ic, err := NewIntercomm(w, []int{2}, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub[i] // nil for rank 1
		ics[i] = ic
	}
	// Sub-comm: comm rank 0 (world 2) -> comm rank 1 (world 0).
	done := make(chan error, 1)
	go func() { done <- subs[2].Send(1, 5, []byte("sub")) }()
	data, _, err := subs[0].RecvTimeout(0, 5, 5*time.Second)
	if err != nil || string(data) != "sub" {
		t.Fatalf("sub-comm recv: %q, %v", data, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Intercomm: master (world 2) -> remote rank 1 (world 1) and back.
	go func() { done <- ics[2][2].Send(1, 9, []byte("ic")) }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	data, _, err = ics[1][1].RecvContext(ctx, 0, 9)
	if err != nil || string(data) != "ic" {
		t.Fatalf("intercomm recv: %q, %v", data, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A process may send on a communicator before its peer has built the same
// one (a worker still joining when the master dispatches, or a respawned
// rank): the frame waits for the communicator instead of being dropped.
func TestDistWorldFrameBeforeComm(t *testing.T) {
	worlds := joinTestWorlds(t, 2)
	sub0, err := worlds[0].NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub0[0].Send(1, 5, []byte("early")); err != nil {
		t.Fatal(err)
	}
	// A later frame from the same sender on the world communicator: once it
	// is received, the early one has reached rank 1 too.
	if err := worlds[0].Comm(0).Send(1, 6, []byte("marker")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := worlds[1].Comm(1).RecvTimeout(0, 6, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sub1, err := worlds[1].NewComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := sub1[1].RecvTimeout(0, 5, 5*time.Second)
	if err != nil || string(data) != "early" {
		t.Fatalf("frame sent before the communicator existed: %q, %v", data, err)
	}
}

// DeclareDead must wake a receiver blocked on the declared rank with
// ErrRankDead — the launcher's failure-detection path when a worker OS
// process exits.
func TestDistWorldDeclareDead(t *testing.T) {
	worlds := joinTestWorlds(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := worlds[0].Comm(0).Recv(1, 3)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv block
	worlds[0].DeclareDead(1)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrRankDead) {
			t.Fatalf("recv after DeclareDead = %v, want ErrRankDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still blocked after DeclareDead")
	}
	if !worlds[0].RankDead(1) {
		t.Fatal("RankDead(1) false after DeclareDead")
	}
}

// Sends to a rank whose process is gone (listener closed, nothing
// redialable) must exhaust the bounded retry loop and fail with
// ErrRankDead rather than hanging.
func TestDistWorldSendToGonePeer(t *testing.T) {
	worlds := joinTestWorlds(t, 2, WithSendTimeout(500*time.Millisecond))
	worlds[1].Close() // rank 1's process "exits"
	start := time.Now()
	err := worlds[0].Comm(0).Send(1, 4, []byte("x"))
	if err == nil {
		// Small frames coalesce, so the first sends return after
		// batching and the failure surfaces asynchronously: the deadline
		// flush runs the retry ladder (dial failures + backoff) and
		// parks its ErrRankDead verdict on the connection, which a later
		// send reports. The OS may also buffer a small write on a
		// connection the peer has not yet RST. Pace the retries so the
		// ladder has time to reach its verdict.
		for i := 0; i < 50 && err == nil; i++ {
			time.Sleep(20 * time.Millisecond)
			err = worlds[0].Comm(0).Send(1, 4, []byte("x"))
		}
	}
	if !errors.Is(err, ErrRankDead) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("send to gone peer = %v, want ErrRankDead or ErrTimeout", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("send took %v", d)
	}
}
