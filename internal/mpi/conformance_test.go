package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datampi/internal/fault"
)

// The transport conformance suite: one table-driven delivery contract —
// per-stream FIFO, end-marker-last ordering, small/large interleave
// order, exactly-once across connection resets, ErrRankDead surfacing —
// run against every transport configuration the library offers, so each
// present and future transport is tested against the same spec. The
// progress-engine entries pin it to the contract: the default eager drain
// and two tunings that force every batch through a single flush trigger
// (deadline-only and size-only).
type conformanceCase struct {
	name string
	// mk builds the world options (fault injectors carry per-world state,
	// so this must be a factory) and returns the injector when the case
	// is fault-wrapped.
	mk func() ([]Option, *fault.Injector)
	// resettable: the case can inject connection resets (raw TCP paths
	// reach the transport's resetConn directly).
	resettable bool
}

func conformanceCases(t *testing.T) []conformanceCase {
	plain := func(opts ...Option) func() ([]Option, *fault.Injector) {
		return func() ([]Option, *fault.Injector) { return opts, nil }
	}
	cases := []conformanceCase{
		{"mem", plain(), false},
		{"tcp", plain(WithTCP()), true},
		// Threshold above every test payload: nothing size-flushes, all
		// delivery rides the deadline timer.
		{"tcp/deadline-flush", plain(WithTCP(), WithEngine(Engine{CoalesceBytes: 1 << 20, CoalesceDeadline: 200 * time.Microsecond})), true},
		// Tiny threshold: batches ship every couple of frames on the size
		// trigger; the short deadline only covers each tail.
		{"tcp/size-flush", plain(WithTCP(), WithEngine(Engine{CoalesceBytes: 64, CoalesceDeadline: 20 * time.Millisecond})), true},
		// Same-host rings instead of sockets: the same batched wire format
		// deposited into shm SPSC rings. Rings never reset (no resettable
		// path), so the contract here is FIFO/ordering/interleave.
		{"shm", plain(WithTCP(), WithShm()), false},
		{"shm/size-flush", plain(WithTCP(), WithShm(), WithEngine(Engine{CoalesceBytes: 64, CoalesceDeadline: 20 * time.Millisecond})), false},
	}
	if !testing.Short() {
		chaos := func(tcp bool) func() ([]Option, *fault.Injector) {
			return func() ([]Option, *fault.Injector) {
				plan := fault.LinkChaos(0xC04F, 0.2, 2*time.Millisecond)
				if tcp {
					plan.Rules = append(plan.Rules,
						fault.Rule{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.05})
				}
				inj := fault.NewInjector(plan)
				opts := []Option{WithFaults(inj), WithSendTimeout(10 * time.Second)}
				if tcp {
					opts = append(opts, WithTCP())
				}
				return opts, inj
			}
		}
		cases = append(cases,
			conformanceCase{"mem/chaos", chaos(false), false},
			conformanceCase{"tcp/chaos", chaos(true), false},
		)
	}
	return cases
}

// conformanceWorld builds a fresh world for one contract subtest.
func conformanceWorld(t *testing.T, n int, tc conformanceCase) (*World, *fault.Injector) {
	t.Helper()
	opts, inj := tc.mk()
	w, err := NewWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, inj
}

func TestTransportConformance(t *testing.T) {
	for _, tc := range conformanceCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()

			// Per-stream FIFO: three concurrent senders into one receiver;
			// each sender's messages arrive in submission order.
			t.Run("fifo-per-stream", func(t *testing.T) {
				t.Parallel()
				w, _ := conformanceWorld(t, 4, tc)
				const msgs = 100
				var wg sync.WaitGroup
				for src := 0; src < 3; src++ {
					wg.Add(1)
					go func(src int) {
						defer wg.Done()
						for i := 0; i < msgs; i++ {
							if err := w.Comm(src).Send(3, 7, []byte{byte(src), byte(i)}); err != nil {
								t.Errorf("send src=%d i=%d: %v", src, i, err)
								return
							}
						}
					}(src)
				}
				for src := 0; src < 3; src++ {
					for i := 0; i < msgs; i++ {
						data, st, err := w.Comm(3).Recv(src, 7)
						if err != nil {
							t.Fatalf("recv src=%d i=%d: %v", src, i, err)
						}
						if st.Source != src || len(data) != 2 || data[0] != byte(src) || data[1] != byte(i) {
							t.Fatalf("recv src=%d i=%d: got source=%d data=%v", src, i, st.Source, data)
						}
					}
				}
				wg.Wait()
			})

			// End-marker ordering: a marker sent after the data frames is
			// delivered after every one of them, never early.
			t.Run("end-marker-last", func(t *testing.T) {
				t.Parallel()
				w, _ := conformanceWorld(t, 2, tc)
				const dataMsgs = 50
				go func() {
					for i := 0; i < dataMsgs; i++ {
						if err := w.Comm(0).Send(1, 1, []byte{byte(i)}); err != nil {
							t.Errorf("send %d: %v", i, err)
							return
						}
					}
					if err := w.Comm(0).Send(1, 2, []byte("end")); err != nil {
						t.Errorf("send end marker: %v", err)
					}
				}()
				for i := 0; i <= dataMsgs; i++ {
					_, st, err := w.Comm(1).Recv(0, AnyTag)
					if err != nil {
						t.Fatalf("recv %d: %v", i, err)
					}
					switch {
					case i < dataMsgs && st.Tag != 1:
						t.Fatalf("message %d: tag %d before all data arrived", i, st.Tag)
					case i == dataMsgs && st.Tag != 2:
						t.Fatalf("message %d: tag %d, want the end marker", i, st.Tag)
					}
				}
			})

			// Small/large interleave: frames on both engine paths (batched
			// small, immediate large) stay in one submission order.
			t.Run("small-large-interleave", func(t *testing.T) {
				t.Parallel()
				w, _ := conformanceWorld(t, 2, tc)
				const msgs = 40
				large := bytes.Repeat([]byte{0xAB}, 80<<10)
				go func() {
					for i := 0; i < msgs; i++ {
						payload := []byte{byte(i)}
						if i%5 == 4 {
							large[0] = byte(i)
							payload = large
						}
						if err := w.Comm(0).Send(1, 3, payload); err != nil {
							t.Errorf("send %d: %v", i, err)
							return
						}
					}
				}()
				for i := 0; i < msgs; i++ {
					data, _, err := w.Comm(1).Recv(0, 3)
					if err != nil {
						t.Fatalf("recv %d: %v", i, err)
					}
					wantLen := 1
					if i%5 == 4 {
						wantLen = 80 << 10
					}
					if len(data) != wantLen || data[0] != byte(i) {
						t.Fatalf("recv %d: len=%d first=%d, want len=%d first=%d",
							i, len(data), data[0], wantLen, i)
					}
				}
			})

			// Exactly-once across resets: connection resets injected while
			// a sender streams must not drop or duplicate anything —
			// including frames coalesced in a batch when the reset lands.
			if tc.resettable {
				t.Run("exactly-once-across-resets", func(t *testing.T) {
					t.Parallel()
					w, _ := conformanceWorld(t, 2, tc)
					rt, ok := w.tr.(connResetter)
					if !ok {
						t.Fatalf("case marked resettable but transport is %T", w.tr)
					}
					const msgs = 300
					done := make(chan struct{})
					go func() {
						defer close(done)
						for i := 0; i < msgs; i++ {
							if err := w.Comm(0).Send(1, 9, []byte{byte(i >> 8), byte(i)}); err != nil {
								t.Errorf("send %d: %v", i, err)
								return
							}
						}
					}()
					go func() {
						for {
							select {
							case <-done:
								return
							default:
								rt.resetConn(1)
								time.Sleep(time.Millisecond)
							}
						}
					}()
					for i := 0; i < msgs; i++ {
						data, _, err := w.Comm(1).Recv(0, 9)
						if err != nil {
							t.Fatalf("recv %d: %v", i, err)
						}
						if got := int(data[0])<<8 | int(data[1]); got != i {
							t.Fatalf("recv %d: got message %d (dropped or duplicated)", i, got)
						}
					}
					<-done
				})
			}

			// ErrRankDead surfacing: once the failure detector declares a
			// rank dead, receives from it and the dead rank's own receives
			// fail typed, not hang. Only fault-wrapped cases can kill.
			if _, inj := tc.mk(); inj != nil {
				t.Run("rank-dead-surfaces", func(t *testing.T) {
					t.Parallel()
					w, inj := conformanceWorld(t, 2, tc)
					inj.Kill(1)
					if _, _, err := w.Comm(0).RecvTimeout(1, 5, 5*time.Second); !errors.Is(err, ErrRankDead) {
						t.Fatalf("recv from killed rank = %v, want ErrRankDead", err)
					}
					if err := w.Comm(0).Send(1, 5, []byte("x")); !errors.Is(err, ErrRankDead) {
						t.Fatalf("send to killed rank = %v, want ErrRankDead", err)
					}
				})
			}
		})
	}
}

// TestCoalesceMidBatchReset is the deterministic version of the reset
// contract: frames are parked in a coalescing batch (threshold and
// deadline too large to flush), the connection is reset under the batch,
// and a large frame then forces the flush over a fresh dial. Nothing may
// be dropped or double-delivered, and order must hold.
func TestCoalesceMidBatchReset(t *testing.T) {
	w, err := NewWorld(2, WithTCP(), WithEngine(Engine{CoalesceBytes: 1 << 20, CoalesceDeadline: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.tr.(*tcpTransport)

	// Establish the connection so the reset has a socket to sever: a
	// large frame trips the size trigger, and the writer goroutine dials
	// on its flush. Sends are asynchronous now, so wait for the write to
	// actually land before parking anything behind it.
	if err := w.Comm(0).Send(1, 1, bytes.Repeat([]byte{1}, 2<<20)); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); w.Stats().WritevCalls == 0; {
		if time.Since(start) > 10*time.Second {
			t.Fatal("first large frame never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	// Park small frames in the batch; with an hour-long deadline they can
	// only leave via the next size-triggered flush.
	const batched = 20
	for i := 0; i < batched; i++ {
		if err := w.Comm(0).Send(1, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("batched send %d: %v", i, err)
		}
	}
	tr.resetConn(1) // sever the conn under the pending batch
	// The flush-forcing large frame must carry the whole batch with it
	// over the redial.
	tail := bytes.Repeat([]byte{7}, 2<<20)
	if err := w.Comm(0).Send(1, 1, tail); err != nil {
		t.Fatal(err)
	}

	if data, _, err := w.Comm(1).Recv(0, 1); err != nil || len(data) != 2<<20 {
		t.Fatalf("first large frame: len=%d err=%v", len(data), err)
	}
	for i := 0; i < batched; i++ {
		data, _, err := w.Comm(1).Recv(0, 1)
		if err != nil {
			t.Fatalf("batched recv %d: %v", i, err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("batched recv %d: got %v (batch tail dropped or duplicated)", i, data)
		}
	}
	if data, _, err := w.Comm(1).Recv(0, 1); err != nil || len(data) != 2<<20 || data[0] != 7 {
		t.Fatalf("tail large frame: len=%d err=%v", len(data), err)
	}
	if s := w.Stats(); s.Dials < 2 {
		t.Fatalf("dials = %d, want >= 2 (the reset must have forced a redial)", s.Dials)
	}
}

// TestCoalesceDeadlineFlushLatency covers the streaming-latency path: a
// lone small frame whose batch will never reach the size threshold must
// still arrive promptly via the deadline flush — a stuck batch would
// hang this receive until the test timeout.
func TestCoalesceDeadlineFlushLatency(t *testing.T) {
	const deadline = 5 * time.Millisecond
	w, err := NewWorld(2, WithTCP(), WithEngine(Engine{CoalesceBytes: 1 << 20, CoalesceDeadline: deadline}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	if err := w.Comm(0).Send(1, 7, []byte("lone")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Comm(1).RecvTimeout(0, 7, 10*time.Second); err != nil {
		t.Fatalf("lone coalesced frame never flushed: %v", err)
	}
	// The hard contract is the deadline flush fires at all; the latency
	// bound is deliberately loose against CI scheduling noise while still
	// catching a batch that waited for more traffic.
	if d := time.Since(start); d > 100*deadline {
		t.Fatalf("lone frame took %v to arrive with a %v flush deadline", d, deadline)
	}
	// The writer bumps the flush counter only after its write returns, so
	// the receiver can see the frame first. Close joins the writers, and
	// Stats stays readable after it.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.CoalesceFlushDeadline == 0 {
		t.Fatalf("CoalesceFlushDeadline = 0 after a deadline-flushed frame (stats %+v)", s)
	}
}

// TestMuxConnCount pins the multiplexing claim: all-to-all traffic on an
// n-rank in-process world opens one outgoing connection per destination,
// not one per (comm, src, dst) triple.
func TestMuxConnCount(t *testing.T) {
	t.Run("mux-on", func(t *testing.T) {
		w, err := NewWorld(3, WithTCP())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for src := 0; src < 3; src++ {
			for dst := 0; dst < 3; dst++ {
				if src == dst {
					continue
				}
				if err := w.Comm(src).Send(dst, 4, []byte(fmt.Sprintf("%d->%d", src, dst))); err != nil {
					t.Fatalf("send %d->%d: %v", src, dst, err)
				}
			}
		}
		for dst := 0; dst < 3; dst++ {
			for n := 0; n < 2; n++ {
				if _, _, err := w.Comm(dst).Recv(AnySource, 4); err != nil {
					t.Fatalf("recv at %d: %v", dst, err)
				}
			}
		}
		if s := w.Stats(); s.MuxConns != 3 {
			t.Fatalf("MuxConns = %d, want 3 (stats %+v)", s.MuxConns, s)
		}
	})
}

// TestCoalescedOrderingUnderLinkChaos hammers the coalescing engine with
// the benign chaos plan plus forced resets: many concurrent streams of
// small (batched) frames interleaved with large (immediate) ones, every
// message still delivered exactly once in per-stream order. Run with
// -race in CI.
func TestCoalescedOrderingUnderLinkChaos(t *testing.T) {
	plan := fault.LinkChaos(0xBA7C4, 0.2, time.Millisecond)
	plan.Rules = append(plan.Rules,
		fault.Rule{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.1})
	inj := fault.NewInjector(plan)
	w, err := NewWorld(4, WithTCP(), WithFaults(inj),
		WithSendTimeout(10*time.Second), WithEngine(Engine{CoalesceBytes: 512, CoalesceDeadline: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const msgs = 200
	var wg sync.WaitGroup
	for src := 0; src < 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			big := bytes.Repeat([]byte{byte(src)}, 4<<10)
			for i := 0; i < msgs; i++ {
				payload := []byte{byte(src), byte(i >> 8), byte(i)}
				if i%17 == 16 {
					big[1], big[2] = byte(i>>8), byte(i)
					payload = big // above the 512B threshold: immediate path
				}
				if err := w.Comm(src).Send(3, 6, payload); err != nil {
					t.Errorf("send src=%d i=%d: %v", src, i, err)
					return
				}
			}
		}(src)
	}
	next := [3]int{}
	for got := 0; got < 3*msgs; got++ {
		data, st, err := w.Comm(3).Recv(AnySource, 6)
		if err != nil {
			t.Fatalf("recv %d: %v", got, err)
		}
		src := st.Source
		i := int(data[1])<<8 | int(data[2])
		if i != next[src] {
			t.Fatalf("stream %d: got message %d, want %d (chaos broke exactly-once order)", src, i, next[src])
		}
		next[src]++
	}
	wg.Wait()
}
