package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"datampi/internal/fault"
)

// chaosWorld builds a world with the given plan wrapped around the chosen
// transport, with a send timeout so nothing can hang the test binary.
func chaosWorld(t *testing.T, n int, tcp bool, plan *fault.Plan) (*World, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector(plan)
	opts := []Option{WithFaults(inj), WithSendTimeout(2 * time.Second)}
	if tcp {
		opts = append(opts, WithTCP())
	}
	w, err := NewWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, inj
}

// TestChaosDropDetectedByDeadline: a dropped message never arrives; the
// receiver's deadline fires instead of hanging forever.
func TestChaosDropDetectedByDeadline(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.Drop, Src: 0, Dst: 1, Prob: 1},
	}}
	w, _ := chaosWorld(t, 2, false, plan)
	if err := w.Comm(0).Send(1, 7, []byte("vanishes")); err != nil {
		t.Fatalf("send: %v", err)
	}
	_, _, err := w.Comm(1).RecvTimeout(0, 7, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv of dropped message: got %v, want ErrTimeout", err)
	}
}

// TestChaosDuplicateDelivery: with Prob 1 duplication every message
// arrives exactly twice, in order, on the channel transport. (On TCP the
// stream reorderer deduplicates by design — covered elsewhere.)
func TestChaosDuplicateDelivery(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.Duplicate, Src: 0, Dst: 1, Prob: 1},
	}}
	w, _ := chaosWorld(t, 2, false, plan)
	const n = 10
	for i := 0; i < n; i++ {
		if err := w.Comm(0).Send(1, 7, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		for copies := 0; copies < 2; copies++ {
			data, _, err := w.Comm(1).RecvTimeout(0, 7, 2*time.Second)
			if err != nil {
				t.Fatalf("recv %d/%d: %v", i, copies, err)
			}
			if data[0] != byte(i) {
				t.Fatalf("recv %d copy %d: got %d", i, copies, data[0])
			}
		}
	}
}

// TestChaosReorderCompleteDelivery: reordering swaps adjacent messages but
// loses nothing; every payload arrives exactly once.
func TestChaosReorderCompleteDelivery(t *testing.T) {
	plan := &fault.Plan{Seed: 99, Rules: []fault.Rule{
		{Kind: fault.Reorder, Src: 0, Dst: 1, Prob: 0.5},
	}}
	w, _ := chaosWorld(t, 2, false, plan)
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			w.Comm(0).Send(1, 7, []byte{byte(i)})
		}
	}()
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		data, _, err := w.Comm(1).RecvTimeout(0, 7, 2*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got = append(got, int(data[0]))
	}
	inversions := 0
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("payload set corrupted at %d: %v", i, got)
		}
	}
	if inversions == 0 {
		t.Error("Prob-0.5 reorder over 50 messages produced zero inversions")
	}
}

// TestChaosKillFailsFast: after Kill, sends to and receives from the dead
// rank fail with ErrRankDead instead of blocking, including a Recv that is
// already parked waiting.
func TestChaosKillFailsFast(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "mem", true: "tcp"}[tcp], func(t *testing.T) {
			w, inj := chaosWorld(t, 3, tcp, &fault.Plan{Seed: 1})

			// Park a receiver on the soon-to-die rank before the kill.
			parked := make(chan error, 1)
			go func() {
				_, _, err := w.Comm(2).Recv(1, 5)
				parked <- err
			}()
			time.Sleep(10 * time.Millisecond)

			inj.Kill(1)

			if err := w.Comm(0).Send(1, 5, []byte("x")); !errors.Is(err, ErrRankDead) {
				t.Errorf("send to dead rank: got %v, want ErrRankDead", err)
			}
			select {
			case err := <-parked:
				if !errors.Is(err, ErrRankDead) {
					t.Errorf("parked recv: got %v, want ErrRankDead", err)
				}
			case <-time.After(2 * time.Second):
				t.Error("parked recv still blocked 2s after rank death")
			}
			// A fresh recv from the dead rank also fails immediately.
			if _, _, err := w.Comm(0).Recv(1, 5); !errors.Is(err, ErrRankDead) {
				t.Errorf("fresh recv from dead rank: got %v, want ErrRankDead", err)
			}
			// Traffic between survivors is unaffected.
			if err := w.Comm(0).Send(2, 6, []byte("ok")); err != nil {
				t.Errorf("survivor send: %v", err)
			}
			if data, _, err := w.Comm(2).RecvTimeout(0, 6, 2*time.Second); err != nil || string(data) != "ok" {
				t.Errorf("survivor recv: %q, %v", data, err)
			}
		})
	}
}

// TestChaosKillAfterCount: a Kill rule with After fires on the first send
// past the threshold, deterministically.
func TestChaosKillAfterCount(t *testing.T) {
	const after = 5
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Kind: fault.Kill, Src: 0, Dst: fault.Any, Prob: 1, After: after},
	}}
	w, _ := chaosWorld(t, 2, false, plan)
	for i := 0; i < after; i++ {
		if err := w.Comm(0).Send(1, 7, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d before threshold: %v", i, err)
		}
	}
	err := w.Comm(0).Send(1, 7, []byte("over"))
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("send past kill threshold: got %v, want ErrRankDead", err)
	}
}

// TestChaosTCPResetSurvivable: injected connection resets on TCP are
// invisible to the application — every message arrives exactly once and in
// order, because the sender rewrites on a fresh connection and the
// receiver's stream reorderer heals the reconnect boundary.
func TestChaosTCPResetSurvivable(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.3},
	}}
	w, _ := chaosWorld(t, 2, true, plan)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(i))
			w.Comm(0).Send(1, 7, b[:])
		}
	}()
	for i := 0; i < n; i++ {
		data, _, err := w.Comm(1).RecvTimeout(0, 7, 5*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := binary.BigEndian.Uint32(data); got != uint32(i) {
			t.Fatalf("position %d: got message %d (reset broke ordering)", i, got)
		}
	}
}

// TestChaosSeedDeterminism: the same plan and seed drop exactly the same
// messages; a different seed drops a different set.
func TestChaosSeedDeterminism(t *testing.T) {
	deliveredSet := func(seed uint64) string {
		plan := &fault.Plan{Seed: seed, Rules: []fault.Rule{
			{Kind: fault.Drop, Src: 0, Dst: 1, Prob: 0.5},
		}}
		w, _ := chaosWorld(t, 2, false, plan)
		const n = 64
		for i := 0; i < n; i++ {
			if err := w.Comm(0).Send(1, 7, []byte{byte(i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		var got []int
		for {
			data, _, err := w.Comm(1).RecvTimeout(0, 7, 100*time.Millisecond)
			if err != nil {
				break // drained
			}
			got = append(got, int(data[0]))
		}
		if len(got) == 0 || len(got) == n {
			t.Fatalf("Prob-0.5 drop delivered %d/%d messages", len(got), n)
		}
		return fmt.Sprint(got)
	}
	a1 := deliveredSet(42)
	a2 := deliveredSet(42)
	b := deliveredSet(43)
	if a1 != a2 {
		t.Errorf("same seed delivered different sets:\n%s\n%s", a1, a2)
	}
	if a1 == b {
		t.Errorf("different seeds delivered identical sets: %s", a1)
	}
}

// TestChaosDelayPreservesOrderUnderConcurrency: heavy probabilistic delay
// with many concurrent (src,dst) pairs keeps per-pair FIFO intact.
func TestChaosDelayPreservesOrderUnderConcurrency(t *testing.T) {
	plan := &fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Kind: fault.Delay, Src: fault.Any, Dst: fault.Any, Prob: 0.6, Latency: time.Millisecond},
	}}
	w, _ := chaosWorld(t, 4, false, plan)
	const n = 40
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := w.Comm(src).Send(dst, 7, []byte{byte(i)}); err != nil {
						t.Errorf("send %d->%d: %v", src, dst, err)
						return
					}
				}
			}(src, dst)
		}
	}
	var rg sync.WaitGroup
	for dst := 0; dst < 4; dst++ {
		for src := 0; src < 4; src++ {
			if src == dst {
				continue
			}
			rg.Add(1)
			go func(src, dst int) {
				defer rg.Done()
				for i := 0; i < n; i++ {
					data, _, err := w.Comm(dst).RecvTimeout(src, 7, 5*time.Second)
					if err != nil {
						t.Errorf("recv %d<-%d: %v", dst, src, err)
						return
					}
					if data[0] != byte(i) {
						t.Errorf("pair %d->%d position %d: got %d", src, dst, i, data[0])
						return
					}
				}
			}(src, dst)
		}
	}
	wg.Wait()
	rg.Wait()
}

// ---------------------------------------------------------------------------
// Transport hardening regressions (satellites: frame cap, inbox deadline).

// TestReadFrameRejectsHugeLength: a malicious length header is refused
// with ErrFrameTooLarge before any comparable allocation happens.
func TestReadFrameRejectsHugeLength(t *testing.T) {
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[20:], 1<<31) // 2 GiB claim, no payload
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameLyingInCapLength: a header claiming more bytes than the
// stream carries (but under the cap) fails with a read error — and, thanks
// to chunked allocation, without first allocating the full claim.
func TestReadFrameLyingInCapLength(t *testing.T) {
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[20:], 128<<20) // 128 MiB claim
	payload := append(hdr[:], bytes.Repeat([]byte{0xAB}, 512)...)
	_, err := readFrame(bytes.NewReader(payload))
	if err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want a short-read error", err)
	}
}

// TestWriteFrameRejectsOversize: the sender side also refuses frames over
// the cap, so the error surfaces where it is actionable.
func TestWriteFrameRejectsOversize(t *testing.T) {
	var sink bytes.Buffer
	w := bufio.NewWriter(&sink)
	err := writeFrame(w, frame{data: make([]byte, maxFrameSize+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameRoundTrip: what writeFrame produces, readFrame parses back,
// including the stream sequence number.
func TestFrameRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	in := frame{comm: 3, srcRank: 2, tag: -7, seq: 1 << 40, data: []byte("payload")}
	if err := writeFrame(bufio.NewWriter(&sink), in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.comm != in.comm || out.srcRank != in.srcRank || out.tag != in.tag ||
		out.seq != in.seq || !bytes.Equal(out.data, in.data) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

// TestMemSendTimeoutOnFullInbox: a receiver that stopped draining (a dead
// process no longer reading) leaves its 1024-slot inbox full; the next
// send used to block forever, and now fails with ErrTimeout. This test
// deadlocked before the deadline existed. It drives the transport directly
// because a live World continuously drains inboxes into the matching
// queues via route().
func TestMemSendTimeoutOnFullInbox(t *testing.T) {
	tr, err := newMemTransport(2, nil, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	for i := 0; i < 1024; i++ {
		if err := tr.send(0, 1, frame{tag: 7}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err = tr.send(0, 1, frame{tag: 7})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("send into full inbox: got %v, want ErrTimeout", err)
	}
}

// TestMemSendBlocksWithoutTimeout: with no timeout configured the old
// blocking behavior is preserved — the send completes once the receiver
// drains a slot.
func TestMemSendBlocksWithoutTimeout(t *testing.T) {
	tr, err := newMemTransport(2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	for i := 0; i < 1024; i++ {
		if err := tr.send(0, 1, frame{tag: 7}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- tr.send(0, 1, frame{tag: 7}) }()
	select {
	case err := <-done:
		t.Fatalf("send into full inbox returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, ok := tr.recv(1); !ok {
		t.Fatal("recv failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked send: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still blocked after receiver drained")
	}
}

// TestTCPReconnectAfterPeerConnLoss: killing the cached connection out
// from under the sender exercises the retry/redial path; the next send
// succeeds transparently.
func TestTCPReconnectAfterPeerConnLoss(t *testing.T) {
	w, err := NewWorld(2, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Comm(0).Send(1, 7, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := w.Comm(1).Recv(0, 7); err != nil || string(data) != "before" {
		t.Fatalf("first recv: %q, %v", data, err)
	}
	// Sever the established connection as an external failure would.
	tt := w.tr.(*tcpTransport)
	tt.resetConn(1)
	if err := w.Comm(0).Send(1, 7, []byte("after")); err != nil {
		t.Fatalf("send after reset: %v", err)
	}
	if data, _, err := w.Comm(1).RecvTimeout(0, 7, 2*time.Second); err != nil || string(data) != "after" {
		t.Fatalf("recv after reset: %q, %v", data, err)
	}
}

// TestRecvContextCancel: a parked RecvContext returns promptly with
// ErrTimeout context wrapping once its context is cancelled.
func TestRecvTimeoutNoMessage(t *testing.T) {
	runBoth(t, 2, func(t *testing.T, w *World) {
		start := time.Now()
		_, _, err := w.Comm(1).RecvTimeout(0, 9, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("got %v, want ErrTimeout", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("timeout recv took %v", time.Since(start))
		}
		// The world is still usable after a timed-out receive.
		if err := w.Comm(0).Send(1, 9, []byte("late")); err != nil {
			t.Fatal(err)
		}
		if data, _, err := w.Comm(1).RecvTimeout(0, 9, 2*time.Second); err != nil || string(data) != "late" {
			t.Fatalf("post-timeout recv: %q, %v", data, err)
		}
	})
}
