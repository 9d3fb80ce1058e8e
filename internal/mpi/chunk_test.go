package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// chunkedCases are the transport configurations the chunked-transfer
// contract runs against: the same message must arrive byte-identical
// whether its continuation frames ride in-memory channels, TCP sockets,
// or same-host shm rings — chunking sits above the raw transport.
func chunkedCases() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"mem", nil},
		{"tcp", []Option{WithTCP()}},
		{"shm", []Option{WithTCP(), WithShm()}},
	}
}

// TestChunkedTransferConformance extends the transport conformance
// contract to chunked messages: with a tiny chunk threshold, payloads
// spanning one byte to hundreds of chunks interleave with sub-threshold
// frames on one stream, and every message arrives byte-identical in
// submission order on every transport.
func TestChunkedTransferConformance(t *testing.T) {
	const th = 1 << 10
	sizes := []int{1, th - 1, th, th + 1, 3*th + 17, 100 * th, 257*th + 9}
	for _, tc := range chunkedCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(2, append([]Option{WithEngine(Engine{ChunkBytes: th})}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			payload := func(n, stamp int) []byte {
				b := bytes.Repeat([]byte{byte(stamp)}, n)
				for i := 0; i < n; i += 251 {
					b[i] = byte(stamp ^ i)
				}
				return b
			}
			go func() {
				for i, n := range sizes {
					if err := w.Comm(0).Send(1, 5, payload(n, i)); err != nil {
						t.Errorf("send %d (%d bytes): %v", i, n, err)
						return
					}
					// A sub-threshold frame after every chunked message:
					// it must not overtake the chunks ahead of it.
					if err := w.Comm(0).Send(1, 5, []byte{byte(i)}); err != nil {
						t.Errorf("send separator %d: %v", i, err)
						return
					}
				}
			}()
			for i, n := range sizes {
				data, st, err := w.Comm(1).Recv(0, 5)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if st.Source != 0 || !bytes.Equal(data, payload(n, i)) {
					t.Fatalf("recv %d: %d bytes from %d, want %d bytes byte-identical",
						i, len(data), st.Source, n)
				}
				sep, _, err := w.Comm(1).Recv(0, 5)
				if err != nil || len(sep) != 1 || sep[0] != byte(i) {
					t.Fatalf("separator %d: %v %v (chunked message broke FIFO)", i, sep, err)
				}
			}
			var wantChunked int64
			for _, n := range sizes {
				if n > th {
					wantChunked++
				}
			}
			s := w.Stats()
			if s.ChunkMsgsSent != wantChunked || s.ChunkMsgsReassembled != s.ChunkMsgsSent {
				t.Fatalf("chunk counters: sent=%d reassembled=%d, want %d each (at-threshold messages must not chunk)",
					s.ChunkMsgsSent, s.ChunkMsgsReassembled, wantChunked)
			}
			if s.ChunkFramesSent != s.ChunkFramesRecv {
				t.Fatalf("chunk frames: sent=%d recv=%d", s.ChunkFramesSent, s.ChunkFramesRecv)
			}
		})
	}
}

// TestChunkedMessageAboveFrameCap pins the BigMPI claim: a message far
// larger than the chunk threshold goes through as exactly the sequenced
// continuation frames the split promises — 256 frames of 4 KiB for a
// 1 MiB message — and is reassembled once, byte-identical, because the
// split happens above the frame layer.
func TestChunkedMessageAboveFrameCap(t *testing.T) {
	for _, tc := range chunkedCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := append([]Option{WithEngine(Engine{ChunkBytes: 1 << 12})}, tc.opts...)
			w, err := NewWorld(2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			big := make([]byte, 1<<20)
			for i := range big {
				big[i] = byte(i * 2654435761)
			}
			sent := make(chan error, 1)
			go func() { sent <- w.Comm(0).Send(1, 2, big) }()
			data, _, err := w.Comm(1).RecvTimeout(0, 2, 30*time.Second)
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if err := <-sent; err != nil {
				t.Fatalf("send: %v", err)
			}
			if !bytes.Equal(data, big) {
				t.Fatalf("1 MiB message at a 4 KiB chunk threshold: %d bytes, not byte-identical", len(data))
			}
			if s := w.Stats(); s.ChunkFramesSent != 256 || s.ChunkMsgsReassembled != 1 {
				t.Fatalf("chunk counters: frames sent=%d reassembled=%d, want 256 and 1",
					s.ChunkFramesSent, s.ChunkMsgsReassembled)
			}
		})
	}
}

// FuzzChunkReassembly drives World.reassemble directly: a message split
// exactly as sendChunked splits it, delivered in an arbitrary order with
// arbitrary duplication, interleaved with junk continuation frames, must
// reassemble byte-identical exactly once — and malformed headers must
// never panic the demux or complete a message early.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte("hello chunked world"), uint16(4), uint64(0), uint16(0), []byte(nil))
	f.Add(bytes.Repeat([]byte{0xAB}, 4096), uint16(100), uint64(12345), uint16(0xFFFF), []byte{0, 0, 0, 5})
	f.Add([]byte("x"), uint16(1), uint64(7), uint16(1), bytes.Repeat([]byte{0xFF}, 24))
	f.Add([]byte(nil), uint16(9), uint64(3), uint16(2), []byte("DMPH not a chunk header"))
	f.Fuzz(func(t *testing.T, msg []byte, chunkTh uint16, perm uint64, dupMask uint16, junk []byte) {
		th := int(chunkTh)%4096 + 1
		w := &World{}
		w.initChunking(engineConfig{})

		// Split msg exactly as sendChunked does.
		total := (len(msg) + th - 1) / th
		if total == 0 {
			total = 1
		}
		const msgID, tag = uint64(42), int32(7)
		chunks := make([][]byte, total)
		for i := 0; i < total; i++ {
			lo := i * th
			hi := lo + th
			if hi > len(msg) {
				hi = len(msg)
			}
			buf := make([]byte, chunkHdrSize+hi-lo)
			binary.BigEndian.PutUint32(buf[0:], uint32(tag))
			binary.BigEndian.PutUint64(buf[4:], msgID)
			binary.BigEndian.PutUint32(buf[12:], uint32(i))
			binary.BigEndian.PutUint32(buf[16:], uint32(total))
			copy(buf[chunkHdrSize:], msg[lo:hi])
			chunks[i] = buf
		}
		// Arbitrary delivery order (a fault layer may reorder), from perm.
		order := make([]int, total)
		for i := range order {
			order[i] = i
		}
		p := perm
		for i := total - 1; i > 0; i-- {
			j := int(p % uint64(i+1))
			p /= uint64(i + 1)
			order[i], order[j] = order[j], order[i]
		}

		deliver := func(data []byte, src int32) (frame, bool) {
			return w.reassemble(1, frame{comm: 3, srcRank: src, tag: tagChunk, seq: 9, data: data})
		}
		done := 0
		var got frame
		for n, i := range order {
			if fr, ok := deliver(chunks[i], 0); ok {
				done++
				got = fr
			}
			// Duplicate in-flight chunks per dupMask: placement is
			// idempotent, so a duplicate must never complete the message.
			// (Post-completion duplicates are out of contract: the
			// transport's exactly-once layer has retired the stream then.)
			if done == 0 && dupMask&(1<<(uint(n)%16)) != 0 {
				if _, ok := deliver(chunks[i], 0); ok {
					done++
				}
			}
			// Junk from a different source rank: disjoint key space, so it
			// can't contaminate our message — it must only not panic.
			if len(junk) > 0 {
				if fr, ok := deliver(junk, 7); ok && len(fr.data) > len(junk) {
					t.Fatalf("junk continuation completed a %d-byte message from %d junk bytes",
						len(fr.data), len(junk))
				}
			}
		}
		if done != 1 {
			t.Fatalf("message completed %d times, want exactly once", done)
		}
		if got.tag != tag || got.comm != 3 || got.seq != 9 || !bytes.Equal(got.data, msg) {
			t.Fatalf("reassembled frame mismatch: tag=%d comm=%d seq=%d len=%d, want tag=%d len=%d",
				got.tag, got.comm, got.seq, len(got.data), tag, len(msg))
		}
		if len(w.chunkAsm) != 0 && len(junk) < chunkHdrSize {
			t.Fatalf("%d reassembly entries leaked after completion", len(w.chunkAsm))
		}
	})
}
