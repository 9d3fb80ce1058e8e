package mpi

import "testing"

func benchWorld(b *testing.B, n int, tcp bool) *World {
	b.Helper()
	var opts []Option
	if tcp {
		opts = append(opts, WithTCP())
	}
	w, err := NewWorld(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	return w
}

func benchP2P(b *testing.B, tcp bool, size int) {
	w := benchWorld(b, 2, tcp)
	buf := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Comm(1).Recv(0, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := w.Comm(0).Send(1, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkP2PSmallMem(b *testing.B) { benchP2P(b, false, 64) }
func BenchmarkP2PSmallTCP(b *testing.B) { benchP2P(b, true, 64) }
func BenchmarkP2PLargeMem(b *testing.B) { benchP2P(b, false, 256<<10) }
func BenchmarkP2PLargeTCP(b *testing.B) { benchP2P(b, true, 256<<10) }
