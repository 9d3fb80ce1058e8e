package mpi

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newTestRing(t *testing.T, capBytes int) *shmRing {
	t.Helper()
	p := filepath.Join(t.TempDir(), "ring")
	if err := createShmRing(p, capBytes); err != nil {
		t.Fatal(err)
	}
	r, err := openShmRing(p, &shmCounters{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.abort()
		r.unmap()
	})
	return r
}

// TestShmRingRoundTrip pushes random-sized writes through a small ring
// while a concurrent consumer drains it, forcing many wraparounds, and
// checks the byte stream comes out intact and in order.
func TestShmRingRoundTrip(t *testing.T) {
	r := newTestRing(t, 4096) // tiny: every few writes wrap and block
	rng := rand.New(rand.NewSource(1))
	var sent []byte
	for len(sent) < 1<<20 {
		n := 1 + rng.Intn(10000) // chunks larger than the ring stream through
		b := make([]byte, n)
		rng.Read(b)
		sent = append(sent, b...)
	}
	got := make([]byte, len(sent))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(r, got)
		done <- err
	}()
	for off := 0; off < len(sent); {
		n := 1 + rng.Intn(20000)
		if off+n > len(sent) {
			n = len(sent) - off
		}
		if err := r.write(sent[off:off+n], 10*time.Second, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		off += n
	}
	if err := <-done; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(sent, got) {
		t.Fatal("ring corrupted the byte stream")
	}
	if b := r.c.bytes.Load(); b != int64(len(sent)) {
		t.Fatalf("counted %d ring bytes, moved %d", b, len(sent))
	}
}

// TestShmRingFrames sends batched frames through a ring and reads them
// back with readFrame — the exact consumer the transport runs.
func TestShmRingFrames(t *testing.T) {
	r := newTestRing(t, 1<<16)
	var batch []byte
	var want []frame
	for i := 0; i < 50; i++ {
		f := frame{comm: 0, srcRank: int32(i % 3), tag: int32(i), seq: uint64(i),
			data: bytes.Repeat([]byte{byte(i)}, i*37%2000)}
		want = append(want, f)
		batch = appendFrame(batch, f)
	}
	go func() {
		r.write(batch, 10*time.Second, nil)
	}()
	for i, w := range want {
		g, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g.tag != w.tag || g.seq != w.seq || !bytes.Equal(g.data, w.data) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

// TestShmRingFullTimeout: with no consumer, a bounded write must fail
// with ErrTimeout once the ring is full — the shm failure detector.
func TestShmRingFullTimeout(t *testing.T) {
	r := newTestRing(t, 4096)
	err := r.write(make([]byte, 8192), 50*time.Millisecond, nil)
	if err == nil || !isTimeout(err) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func isTimeout(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrTimeout {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestShmRingAbortUnblocks: abort must fail a producer blocked on a full
// ring with ErrClosed, and EOF a consumer blocked on an empty one.
func TestShmRingAbortUnblocks(t *testing.T) {
	t.Run("producer", func(t *testing.T) {
		r := newTestRing(t, 4096)
		werr := make(chan error, 1)
		// No consumer: the 16 KiB write wedges against the full ring.
		go func() { werr <- r.write(make([]byte, 16384), 0, nil) }()
		time.Sleep(20 * time.Millisecond)
		r.abort()
		select {
		case err := <-werr:
			if err != ErrClosed {
				t.Fatalf("want ErrClosed, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("producer still blocked after abort")
		}
	})
	t.Run("consumer", func(t *testing.T) {
		r := newTestRing(t, 4096)
		rerr := make(chan error, 1)
		// No producer: the read wedges against the empty ring.
		go func() {
			var b [16]byte
			_, err := r.Read(b[:])
			rerr <- err
		}()
		time.Sleep(20 * time.Millisecond)
		r.abort()
		select {
		case err := <-rerr:
			if err != io.EOF {
				t.Fatalf("want io.EOF, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("consumer still blocked after abort")
		}
	})
}

// TestShmRingStopDrains: stop (graceful) lets the consumer drain what is
// buffered before EOF; abort drops it.
func TestShmRingStopDrains(t *testing.T) {
	r := newTestRing(t, 4096)
	if err := r.write([]byte("hello"), time.Second, nil); err != nil {
		t.Fatal(err)
	}
	r.stop()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Fatalf("drained %q", b)
	}
}

// TestShmRingOpenRejectsCorrupt covers the validation surface FuzzShmRing
// explores: truncated files, bad magic/version, lying capacity, cursors
// out of range.
func TestShmRingOpenRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, mutate func([]byte) []byte) string {
		p := filepath.Join(dir, name)
		if err := createShmRing(p, 4096); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mutate(b), 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:100] },
		"badmagic":  func(b []byte) []byte { b[0] ^= 0xff; return b },
		"badver":    func(b []byte) []byte { b[shmOffVersion] = 99; return b },
		"badcap":    func(b []byte) []byte { b[shmOffCap] ^= 0xff; return b },
		"cursors":   func(b []byte) []byte { b[shmOffHead+7] = 0xff; return b },
		"tailahead": func(b []byte) []byte { b[shmOffTail] = 1; return b },
	}
	for name, mutate := range cases {
		p := mk(name, mutate)
		if r, err := openShmRing(p, nil); err == nil {
			r.unmap()
			t.Errorf("%s: corrupt segment accepted", name)
		}
	}
	// And a healthy segment with plausible non-zero cursors still opens.
	p := mk("ok", func(b []byte) []byte { b[shmOffHead] = 7; b[shmOffTail] = 7; return b })
	r, err := openShmRing(p, nil)
	if err != nil {
		t.Fatalf("healthy segment rejected: %v", err)
	}
	r.unmap()
}

// TestShmSegmentsAndHostID exercises the directory/handshake helpers: a
// created directory yields a stable host id, a different nonce (another
// launch) a different id, and a missing nonce an error.
func TestShmSegmentsAndHostID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg")
	if err := CreateShmSegments(dir, 3, 4096); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if _, err := os.Stat(shmRingPath(dir, src, dst)); err != nil {
				t.Fatalf("ring %d-%d missing: %v", src, dst, err)
			}
		}
	}
	id1, err := ShmHostID(dir)
	if err != nil || id1 == "" {
		t.Fatalf("ShmHostID: %q, %v", id1, err)
	}
	id2, err := ShmHostID(dir)
	if err != nil || id2 != id1 {
		t.Fatalf("host id not stable: %q vs %q (%v)", id1, id2, err)
	}
	dir2 := filepath.Join(t.TempDir(), "seg2")
	if err := CreateShmSegments(dir2, 2, 4096); err != nil {
		t.Fatal(err)
	}
	id3, _ := ShmHostID(dir2)
	if id3 == id1 {
		t.Fatal("different launches derived the same host id")
	}
	if _, err := ShmHostID(t.TempDir()); err == nil {
		t.Fatal("missing nonce accepted")
	}
	addr := ShmAddr("127.0.0.1:9", id1)
	a, h := parseShmAddr(addr)
	if a != "127.0.0.1:9" || h != id1 {
		t.Fatalf("descriptor round-trip: %q -> %q %q", addr, a, h)
	}
	a, h = parseShmAddr("127.0.0.1:9")
	if a != "127.0.0.1:9" || h != "" {
		t.Fatalf("plain address parse: %q %q", a, h)
	}
}

// FuzzShmRing fuzzes the segment header/cursor validation and the
// consumer path over arbitrary file contents: opening must reject or
// accept without panicking, and reading frames off an accepted segment
// must terminate without unbounded allocation.
func FuzzShmRing(f *testing.F) {
	seed := func(mutate func([]byte) []byte) {
		p := filepath.Join(f.TempDir(), "seed")
		if err := createShmRing(p, 2048); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		os.Remove(p)
		f.Add(mutate(b))
	}
	seed(func(b []byte) []byte { return b }) // pristine empty ring
	seed(func(b []byte) []byte {             // two valid frames in the data region
		var batch []byte
		batch = appendFrame(batch, frame{comm: 1, srcRank: 0, tag: 7, seq: 0, data: []byte("hello")})
		batch = appendFrame(batch, frame{comm: 1, srcRank: 0, tag: 7, seq: 1, data: []byte("world")})
		copy(b[shmHeaderSize:], batch)
		b[shmOffHead] = byte(len(batch))
		return b
	})
	seed(func(b []byte) []byte { // frame header claiming more than available
		copy(b[shmHeaderSize:], []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9})
		b[shmOffHead] = 24
		return b
	})
	seed(func(b []byte) []byte { b[shmOffHead+7] = 0x80; return b }) // cursor overflow
	seed(func(b []byte) []byte { return b[:77] })                    // truncated
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return
		}
		p := filepath.Join(t.TempDir(), "ring")
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Skip()
		}
		r, err := openShmRing(p, nil)
		if err != nil {
			return
		}
		defer r.unmap()
		r.stop() // graceful: deliver what the cursors claim, then EOF
		for i := 0; i < 64; i++ {
			if _, err := readFrame(r); err != nil {
				break
			}
		}
	})
}

// TestShmWorldSmoke runs a small in-process world over WithShm end to
// end: every pair's traffic crosses the rings, stats see it, and the
// segment directory is gone after Close.
func TestShmWorldSmoke(t *testing.T) {
	w, err := NewWorld(3, WithTCP(), WithShm())
	if err != nil {
		t.Fatal(err)
	}
	var dir string
	if tr, ok := w.tr.(*tcpTransport); ok && tr.shm != nil {
		dir = tr.shm.dir
	} else {
		t.Fatal("WithShm world has no shm state")
	}
	var wg errgroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Go(func() error {
			c := w.Comm(r)
			for d := 0; d < 3; d++ {
				if err := c.Send(d, 1, []byte(fmt.Sprintf("m-%d-%d", r, d))); err != nil {
					return err
				}
			}
			for src := 0; src < 3; src++ {
				b, _, err := c.Recv(src, 1)
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("m-%d-%d", src, r); string(b) != want {
					return fmt.Errorf("rank %d got %q want %q", r, b, want)
				}
			}
			return nil
		})
	}
	if err := wg.Wait(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.ShmConns == 0 || st.ShmBytes == 0 {
		t.Fatalf("no shm traffic counted: %+v", st)
	}
	if st.Dials != 0 {
		t.Fatalf("shm world dialed %d sockets", st.Dials)
	}
	w.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("segment dir %s survived Close (err=%v)", dir, err)
	}
}

// errgroup is a minimal local stand-in (no external deps).
type errgroup struct {
	ch []chan error
}

func (g *errgroup) Go(fn func() error) {
	c := make(chan error, 1)
	g.ch = append(g.ch, c)
	go func() { c <- fn() }()
}

func (g *errgroup) Wait() error {
	var first error
	for _, c := range g.ch {
		if err := <-c; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestNewShmDirReapsDeadRuns: a segment directory named after a process
// that is gone (a killed run) is removed when the next one is made, while
// one named after a live process, and one with no pid in its name, stay.
func TestNewShmDirReapsDeadRuns(t *testing.T) {
	parent := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	dead := filepath.Join(parent, fmt.Sprintf("datampi-shm-%d-1", child.Process.Pid))
	live := filepath.Join(parent, fmt.Sprintf("datampi-shm-%d-2", os.Getpid()))
	nopid := filepath.Join(parent, "datampi-shm-12345")
	for _, d := range []string{dead, live, nopid} {
		if err := os.MkdirAll(filepath.Join(d, "ring-0-0"), 0o700); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := NewShmDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("datampi-shm-%d-", os.Getpid()); !strings.HasPrefix(filepath.Base(dir), want) {
		t.Errorf("new segment directory %s, want a %s* name", dir, want)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Errorf("%s, named after a reaped child, was not removed (%v)", dead, err)
	}
	for _, d := range []string{live, nopid, dir} {
		if _, err := os.Stat(d); err != nil {
			t.Errorf("%s was removed: %v", d, err)
		}
	}
}
