package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"datampi/internal/fault"
	"datampi/internal/netsim"
)

// parityCases is the transport-parity matrix: every test body runs on the
// channel transport, the TCP transport, and — unless -short — on both
// again under benign link chaos (deterministic probabilistic delays, plus
// connection resets on TCP). Delays and sender-side resets preserve the
// library's delivery guarantees, so identical assertions must hold; what
// changes is timing, interleaving, and (for TCP) exercise of the
// reconnect/retry path. opts is a factory because fault injectors carry
// per-world state.
func parityCases(t *testing.T) []struct {
	name string
	opts func() []Option
} {
	cases := []struct {
		name string
		opts func() []Option
	}{
		{"mem", func() []Option { return nil }},
		{"tcp", func() []Option { return []Option{WithTCP()} }},
	}
	if !testing.Short() {
		delayPlan := &fault.Plan{Seed: 0xDA7A, Rules: []fault.Rule{
			{Kind: fault.Delay, Src: fault.Any, Dst: fault.Any, Prob: 0.2, Latency: 2 * time.Millisecond},
		}}
		chaosTCP := &fault.Plan{Seed: 0xDA7A, Rules: []fault.Rule{
			{Kind: fault.Delay, Src: fault.Any, Dst: fault.Any, Prob: 0.2, Latency: 2 * time.Millisecond},
			{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.05},
		}}
		cases = append(cases,
			struct {
				name string
				opts func() []Option
			}{"mem/chaos", func() []Option {
				return []Option{WithFaults(fault.NewInjector(delayPlan)), WithSendTimeout(5 * time.Second)}
			}},
			struct {
				name string
				opts func() []Option
			}{"tcp/chaos", func() []Option {
				return []Option{WithTCP(), WithFaults(fault.NewInjector(chaosTCP)), WithSendTimeout(5 * time.Second)}
			}},
		)
	}
	return cases
}

// runBoth runs a subtest across the whole transport-parity matrix. The
// subtests run in parallel so the race detector sees real interleavings.
func runBoth(t *testing.T, n int, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, tc := range parityCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(n, tc.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fn(t, w)
		})
	}
}

func TestSendRecvBasic(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		done := make(chan error, 1)
		go func() {
			done <- w.Comm(0).Send(1, 7, []byte("hello"))
		}()
		data, st, err := w.Comm(1).Recv(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "hello" || st.Source != 0 || st.Tag != 7 {
			t.Errorf("got %q %+v", data, st)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendBufferReusableAfterReturn(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		buf := []byte("aaaa")
		if err := w.Comm(0).Send(1, 1, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "bbbb") // mutate after Send returns
		data, _, err := w.Comm(1).Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "aaaa" {
			t.Errorf("message corrupted by buffer reuse: %q", data)
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		const n = 100
		go func() {
			for i := 0; i < n; i++ {
				w.Comm(0).Send(1, 3, []byte{byte(i)})
			}
		}()
		for i := 0; i < n; i++ {
			data, _, err := w.Comm(1).Recv(0, 3)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != byte(i) {
				t.Fatalf("out of order: got %d at position %d", data[0], i)
			}
		}
	})
}

func TestTagSelective(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		go func() {
			w.Comm(0).Send(1, 1, []byte("one"))
			w.Comm(0).Send(1, 2, []byte("two"))
		}()
		// Receive tag 2 first even though tag 1 arrived first.
		data, _, err := w.Comm(1).Recv(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "two" {
			t.Errorf("tag 2 recv got %q", data)
		}
		data, _, _ = w.Comm(1).Recv(0, 1)
		if string(data) != "one" {
			t.Errorf("tag 1 recv got %q", data)
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runBoth(t, 3, func(t *testing.T, w *World) {
		go func() { w.Comm(1).Send(0, 5, []byte("from1")) }()
		go func() { w.Comm(2).Send(0, 6, []byte("from2")) }()
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, st, err := w.Comm(0).Recv(AnySource, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			seen[st.Source] = true
			want := fmt.Sprintf("from%d", st.Source)
			if string(data) != want {
				t.Errorf("got %q from %d", data, st.Source)
			}
		}
		if !seen[1] || !seen[2] {
			t.Errorf("sources seen: %v", seen)
		}
	})
}

func TestNegativeUserTagRejected(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		if err := w.Comm(0).Send(1, -5, nil); err == nil {
			t.Error("negative user tag accepted")
		}
	})
}

// TestAnyTagIgnoresSystemTags feeds rank 1 a frame with a negative tag
// other than tagChunk, as a corrupt remote frame would arrive, ahead of a
// user message on the same stream: an AnyTag receive must skip it and
// return the user message, leaving the stray frame queued.
func TestAnyTagIgnoresSystemTags(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		const stray = -7
		if err := w.tr.send(0, 1, frame{comm: 0, srcRank: 0, tag: stray, data: []byte("sys")}); err != nil {
			t.Fatal(err)
		}
		if err := w.Comm(0).Send(1, 0, []byte("user")); err != nil {
			t.Fatal(err)
		}
		c := w.Comm(1)
		data, st, err := c.Recv(AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "user" || st.Tag != 0 {
			t.Errorf("AnyTag matched %q tag %d", data, st.Tag)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.queue) != 1 || c.queue[0].tag != stray {
			t.Errorf("queue after AnyTag receive: %d frames, want the stray frame alone", len(c.queue))
		}
	})
}

func TestSendOutOfRange(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		if err := w.Comm(0).Send(5, 0, nil); err == nil {
			t.Error("out-of-range destination accepted")
		}
	})
}

func TestLargeMessage(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		big := bytes.Repeat([]byte{0xAB}, 4<<20)
		go w.Comm(0).Send(1, 0, big)
		data, _, err := w.Comm(1).Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, big) {
			t.Error("large message corrupted")
		}
	})
}

func TestCloseWakesReceivers(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		errCh := make(chan error, 1)
		go func() {
			_, _, err := w.Comm(1).Recv(0, 0)
			errCh <- err
		}()
		time.Sleep(10 * time.Millisecond)
		w.Close()
		select {
		case err := <-errCh:
			if err != ErrClosed {
				t.Errorf("got %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv not woken by Close")
		}
	})
}

func TestCloseIdempotent(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldInvalidSize(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("zero-size world accepted")
	}
}

func TestSubCommunicatorIsolation(t *testing.T) {
	runBoth(t, 4, func(t *testing.T, w *World) {
		sub, err := w.NewComm([]int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if sub[0] != nil || sub[2] != nil {
			t.Error("non-members should have nil handles")
		}
		if sub[1].Rank() != 0 || sub[3].Rank() != 1 {
			t.Errorf("sub ranks: %d %d", sub[1].Rank(), sub[3].Rank())
		}
		// World traffic on the same (src, tag) must not leak into sub comm.
		go w.Comm(1).Send(3, 2, []byte("world"))
		go sub[1].Send(1, 2, []byte("sub"))
		data, _, err := sub[3].Recv(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "sub" {
			t.Errorf("sub comm got %q", data)
		}
		data, _, err = w.Comm(3).Recv(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "world" {
			t.Errorf("world comm got %q", data)
		}
	})
}

func TestNewCommValidation(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.NewComm([]int{0, 0}); err == nil {
		t.Error("duplicate ranks accepted")
	}
	if _, err := w.NewComm([]int{0, 9}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestManyToOneConcurrent(t *testing.T) {
	const n = 8
	runBoth(t, n, func(t *testing.T, w *World) {
		const per = 50
		var wg sync.WaitGroup
		for r := 1; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := w.Comm(r).Send(0, 1, []byte{byte(r), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		counts := map[byte]int{}
		for i := 0; i < (n-1)*per; i++ {
			data, _, err := w.Comm(0).Recv(AnySource, 1)
			if err != nil {
				t.Fatal(err)
			}
			counts[data[0]]++
		}
		wg.Wait()
		for r := 1; r < n; r++ {
			if counts[byte(r)] != per {
				t.Errorf("rank %d delivered %d messages, want %d", r, counts[byte(r)], per)
			}
		}
	})
}

func TestRandomTrafficExactlyOnce(t *testing.T) {
	// Property: random message traffic between random rank pairs is
	// delivered exactly once, unmodified, under both transports.
	runBoth(t, 5, func(t *testing.T, w *World) {
		const perSender = 120
		n := w.Size()
		type msg struct{ src, seq int }
		var mu sync.Mutex
		got := map[msg]int{}
		var wg sync.WaitGroup
		// Receivers: each rank drains exactly what will be sent to it.
		counts := make([]int, n)
		rng := make([]*localRand, n)
		for r := 0; r < n; r++ {
			rng[r] = &localRand{state: uint64(r + 1)}
		}
		// Precompute destinations deterministically per sender.
		dests := make([][]int, n)
		for s := 0; s < n; s++ {
			dests[s] = make([]int, perSender)
			for i := range dests[s] {
				dests[s][i] = int(rng[s].next() % uint64(n))
				counts[dests[s][i]]++
			}
		}
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < counts[r]; i++ {
					data, st, err := w.Comm(r).Recv(AnySource, 7)
					if err != nil {
						t.Error(err)
						return
					}
					if len(data) != 3 || int(data[0]) != st.Source {
						t.Errorf("rank %d: bad payload %v from %d", r, data, st.Source)
						return
					}
					mu.Lock()
					got[msg{src: int(data[0]), seq: int(data[1])<<8 | int(data[2])}]++
					mu.Unlock()
				}
			}(r)
		}
		for s := 0; s < n; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i, d := range dests[s] {
					if err := w.Comm(s).Send(d, 7, []byte{byte(s), byte(i >> 8), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		if len(got) != n*perSender {
			t.Fatalf("delivered %d distinct messages, want %d", len(got), n*perSender)
		}
		for m, c := range got {
			if c != 1 {
				t.Errorf("message %+v delivered %d times", m, c)
			}
		}
	})
}

// localRand is a tiny deterministic PRNG (xorshift) so both the senders
// and the receiver accounting agree on destinations.
type localRand struct{ state uint64 }

func (l *localRand) next() uint64 {
	l.state ^= l.state << 13
	l.state ^= l.state >> 7
	l.state ^= l.state << 17
	return l.state
}

func TestIntercomm(t *testing.T) {
	runBoth(t, 5, func(t *testing.T, w *World) {
		// Group L = {0}, group R = {1,2,3,4}: mpidrun and its workers.
		ics, err := NewIntercomm(w, []int{0}, []int{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		master := ics[0]
		if master.RemoteSize() != 4 {
			t.Fatalf("remote size %d, want 4", master.RemoteSize())
		}
		var wg sync.WaitGroup
		for wr := 1; wr <= 4; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				ic := ics[wr]
				data, st, err := ic.Recv(0, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if st.Source != 0 {
					t.Errorf("worker saw source %d", st.Source)
				}
				ic.Send(0, 2, append([]byte("ack:"), data...))
			}(wr)
		}
		for r := 0; r < 4; r++ {
			if err := master.Send(r, 1, []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		got := map[byte]bool{}
		for i := 0; i < 4; i++ {
			data, st, err := master.Recv(AnySource, 2)
			if err != nil {
				t.Fatal(err)
			}
			if st.Source < 0 || st.Source >= 4 {
				t.Errorf("master saw remote source %d", st.Source)
			}
			got[data[4]] = true
		}
		wg.Wait()
		if len(got) != 4 {
			t.Errorf("acks from %d workers", len(got))
		}
	})
}

func TestWithLinkAccounting(t *testing.T) {
	link := netsim.NewLink(netsim.Unlimited)
	w, err := NewWorld(2, WithLink(link))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go w.Comm(0).Send(1, 0, make([]byte, 1000))
	if _, _, err := w.Comm(1).Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	s := link.Stats()
	if s.PayloadBytes != 1000 {
		t.Errorf("link payload = %d, want 1000", s.PayloadBytes)
	}
	if s.OverheadBytes == 0 {
		t.Error("no protocol overhead charged")
	}
}
