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
// present and future transport is tested against the same spec.
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
		// Same-host rings instead of sockets: the same batched wire format
		// deposited into shm SPSC rings. Rings never reset (no resettable
		// path), so the contract here is FIFO/ordering/interleave.
		{"shm", plain(WithTCP(), WithShm()), false},
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
// contract: frames are parked in a batch whose writer has not started
// yet, the connection is reset under the batch, and only then does the
// writer run. The whole batch must cross the redial in one flush, with
// nothing dropped or double-delivered and order intact.
func TestCoalesceMidBatchReset(t *testing.T) {
	w, err := NewWorld(2, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.tr.(*tcpTransport)

	// Install rank 1's connection by hand, dialed but writerless, so
	// sends park in its batch until the test starts the writer.
	tc := &tcpConn{
		dst:   1,
		kick:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		dead:  make(chan struct{}),
	}
	tr.mu.Lock()
	tr.conns[1] = tc
	tr.mu.Unlock()
	tc.mu.Lock()
	err = tr.ensureConnLocked(tc)
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	const batched = 20
	for i := 0; i < batched; i++ {
		if err := w.Comm(0).Send(1, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("batched send %d: %v", i, err)
		}
	}
	tr.resetConn(1) // sever the conn under the pending batch
	tr.wg.Add(1)
	go tr.connWriter(tc)

	for i := 0; i < batched; i++ {
		data, _, err := w.Comm(1).Recv(0, 1)
		if err != nil {
			t.Fatalf("batched recv %d: %v", i, err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("batched recv %d: got %v (batch dropped, duplicated or reordered)", i, data)
		}
	}
	// The writer counts the batch only after its write returns, so the
	// receiver can see the frames first. Close joins the writers, and
	// Stats stays readable after it.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Dials < 2 {
		t.Fatalf("dials = %d, want >= 2 (the reset must have forced a redial)", s.Dials)
	}
	if s.CoalesceBatches < 1 {
		t.Fatalf("CoalesceBatches = %d, want >= 1 (the parked frames must ship as one batch)", s.CoalesceBatches)
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
// small frames interleaved with large ones, every
// message still delivered exactly once in per-stream order. Run with
// -race in CI.
func TestCoalescedOrderingUnderLinkChaos(t *testing.T) {
	plan := fault.LinkChaos(0xBA7C4, 0.2, time.Millisecond)
	plan.Rules = append(plan.Rules,
		fault.Rule{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.1})
	inj := fault.NewInjector(plan)
	w, err := NewWorld(4, WithTCP(), WithFaults(inj),
		WithSendTimeout(10*time.Second))
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
					payload = big
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
