package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Parity tests for collective patterns written on point-to-point
// Send/Recv, the way a caller above this package builds an allgather, a
// reduce or a ring shift: every rank's payload is a deterministic
// function of (seed, rank), so each rank rebuilds the exact result from
// an oracle computed locally and compares it with what the relay
// delivered, over random payload sizes and byte patterns on every
// transport of the parity matrix. They exercise AnySource matching with
// Status.Source, per-(source, tag) FIFO order and tag selectivity across
// several message streams at once.

const (
	tagRefGather = 50
	tagRefBcast  = 51
	tagRefReduce = 52
	tagRefRing   = 53
)

// spawn runs fn once per rank of w, concurrently, and fails the test
// with the first rank's error.
func spawn(t *testing.T, w *World, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, w.Size())
	for i := 0; i < w.Size(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(w.Comm(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// randPayload builds rank r's deterministic pseudo-random payload. kind
// selects the byte pattern: random bytes, all-zero, or ASCII text.
func randPayload(seed int64, r, kind int) []byte {
	rng := rand.New(rand.NewSource(seed + int64(r)*7919))
	n := rng.Intn(1 << 12)
	b := make([]byte, n)
	switch kind % 3 {
	case 0:
		rng.Read(b)
	case 1: // zeros
	case 2:
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return b
}

// refAllgather is the relay allgather: every rank ships its buffer to
// rank 0, which rebroadcasts the full indexed set.
func refAllgather(c *Comm, data []byte) ([][]byte, error) {
	n := c.Size()
	if c.Rank() == 0 {
		out := make([][]byte, n)
		out[0] = append([]byte(nil), data...)
		for i := 1; i < n; i++ {
			d, st, err := c.Recv(AnySource, tagRefGather)
			if err != nil {
				return nil, err
			}
			if out[st.Source] != nil {
				return nil, fmt.Errorf("rank 0: second gather block from rank %d", st.Source)
			}
			out[st.Source] = d
		}
		for i := 1; i < n; i++ {
			for j := 0; j < n; j++ {
				if err := c.Send(i, tagRefBcast, out[j]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	if err := c.Send(0, tagRefGather, data); err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for j := 0; j < n; j++ {
		d, _, err := c.Recv(0, tagRefBcast)
		if err != nil {
			return nil, err
		}
		out[j] = d
	}
	return out, nil
}

func TestAllgatherMatchesRelayReference(t *testing.T) {
	for _, seed := range []int64{1, 0xBEEF, 424242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBoth(t, 4, func(t *testing.T, w *World) {
				spawn(t, w, func(c *Comm) error {
					got, err := refAllgather(c, randPayload(seed, c.Rank(), c.Rank()))
					if err != nil {
						return err
					}
					if len(got) != c.Size() {
						return fmt.Errorf("rank %d: allgather returned %d blocks, want %d",
							c.Rank(), len(got), c.Size())
					}
					for i := range got {
						if want := randPayload(seed, i, i); !bytes.Equal(got[i], want) {
							return fmt.Errorf("rank %d: allgather[%d]: %d bytes != oracle %d bytes",
								c.Rank(), i, len(got[i]), len(want))
						}
					}
					return nil
				})
			})
		})
	}
}

// xorFold is an associative, commutative reduction over raw buffers:
// elementwise XOR, extending to the longer operand.
func xorFold(acc, x []byte) []byte {
	if len(x) > len(acc) {
		acc = append(acc, make([]byte, len(x)-len(acc))...)
	}
	for i := range x {
		acc[i] ^= x[i]
	}
	return acc
}

func TestReduceBytesMatchesRelayReference(t *testing.T) {
	for _, cfg := range []struct {
		seed int64
		root int
	}{{7, 0}, {99, 2}, {0xFACE, 3}} {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d/root=%d", cfg.seed, cfg.root), func(t *testing.T) {
			runBoth(t, 4, func(t *testing.T, w *World) {
				spawn(t, w, func(c *Comm) error {
					data := randPayload(cfg.seed, c.Rank(), c.Rank()+1)
					// Relay reduce: everyone ships raw data to rank 0,
					// which folds in rank order and forwards the result to
					// the root.
					switch c.Rank() {
					case 0:
						acc := append([]byte(nil), data...)
						for i := 1; i < c.Size(); i++ {
							d, _, err := c.Recv(i, tagRefReduce)
							if err != nil {
								return err
							}
							acc = xorFold(acc, d)
						}
						if err := c.Send(cfg.root, tagRefBcast, acc); err != nil {
							return err
						}
					default:
						if err := c.Send(0, tagRefReduce, data); err != nil {
							return err
						}
					}
					if c.Rank() != cfg.root {
						return nil
					}
					got, _, err := c.Recv(0, tagRefBcast)
					if err != nil {
						return err
					}
					var want []byte
					for r := 0; r < c.Size(); r++ {
						want = xorFold(want, randPayload(cfg.seed, r, r+1))
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("root %d: reduce %d bytes != oracle %d bytes",
							cfg.root, len(got), len(want))
					}
					return nil
				})
			})
		})
	}
}

func TestSendrecvRingMatchesOracle(t *testing.T) {
	for _, seed := range []int64{3, 0xD00D} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBoth(t, 5, func(t *testing.T, w *World) {
				spawn(t, w, func(c *Comm) error {
					n := c.Size()
					data := randPayload(seed, c.Rank(), c.Rank())
					dst := (c.Rank() + 1) % n
					src := (c.Rank() + n - 1) % n
					// Every rank sends and receives at once, so the send
					// runs beside the receive rather than before it.
					errCh := make(chan error, 1)
					go func() { errCh <- c.Send(dst, tagRefRing, data) }()
					got, st, err := c.Recv(src, tagRefRing)
					if err != nil {
						return err
					}
					if err := <-errCh; err != nil {
						return err
					}
					if st.Source != src || st.Tag != tagRefRing {
						return fmt.Errorf("rank %d: ring status %+v, want source %d tag %d",
							c.Rank(), st, src, tagRefRing)
					}
					// The receiver rebuilds the sender's buffer from (seed, src).
					if want := randPayload(seed, src, src); !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d: ring from %d: %d bytes != oracle %d bytes",
							c.Rank(), src, len(got), len(want))
					}
					return nil
				})
			})
		})
	}
}
