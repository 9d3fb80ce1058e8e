package mpi

import "encoding/binary"

// Chunked transfer: the BigMPI strategy under the progress engine. A
// message whose payload exceeds the world's chunk threshold never hits
// the wire as one frame — Comm.Send splits it into sequenced CHNK
// continuation frames (tagChunk), each carrying a sub-header naming the
// original tag, a sender-unique message id, and this chunk's position,
// and the receive demux (World.route) reassembles them back into the
// original message before matching. The split rides the existing
// per-(comm, srcRank, dst) streams, so exactly-once, FIFO and drain
// semantics are untouched: the reassembled message is delivered at the
// stream position of its last chunk, which is exactly where the
// unchunked frame would have sat. Because chunking happens above the raw
// transport it behaves identically over TCP, shm rings and the
// in-memory channels — and it lifts the frame cap off messages: a
// chunked message may be arbitrarily larger than a frame.

// tagChunk is the reserved system tag of continuation frames. Negative
// tags never match AnyTag, so chunk frames are invisible to user
// receives; it is the only negative tag the library sends.
const tagChunk = -64

// chunkHdrSize is the continuation frame's sub-header, prepended to each
// chunk's data: origTag u32 | msgID u64 | chunkIdx u32 | totalChunks u32.
const chunkHdrSize = 20

// maxChunksPerMsg bounds a continuation header's totalChunks claim so a
// corrupt frame cannot reserve an unbounded reassembly slice. At the
// default 4 MiB chunk size this still admits 4 TiB messages.
const maxChunksPerMsg = 1 << 20

// chunkKey identifies one in-flight chunked message at its receiver.
// msgID alone is unique per sending World; comm/src/dst keep keys
// disjoint even across distributed processes that each run their own
// counter, because every (comm, srcRank, dst) stream originates in
// exactly one process.
type chunkKey struct {
	comm  uint32
	src   int32
	dst   int32
	msgID uint64
}

// chunkAsm is one message's reassembly state: the chunks received so
// far, indexed by position. Frames handed out by transport recv are
// receiver-owned (the recv ownership contract), so parts alias the
// delivered frame payloads without copying.
type chunkAsm struct {
	tag   int32
	parts [][]byte
	have  int
	size  int
}

// initChunking derives the world's chunk threshold from a normalized
// copy of the engine config, so NewWorld and JoinWorld split messages
// identically over every transport.
func (w *World) initChunking(eng engineConfig) {
	eng.normalize()
	w.chunkBytes = eng.ChunkBytes
	w.chunkAsm = make(map[chunkKey]*chunkAsm)
}

// sendChunked splits data into continuation frames and sends them in
// stream order. One scratch buffer is reused across chunks: every
// transport honours the send ownership contract (the payload is copied,
// or fully written, before send returns), so the next iteration may
// overwrite it.
func (c *Comm) sendChunked(dst, tag int, data []byte) error {
	w := c.world
	th := w.chunkBytes
	total := (len(data) + th - 1) / th
	msgID := w.chunkMsgID.Add(1)
	src, dstWorld := c.ranks[c.myRank], c.ranks[dst]
	buf := make([]byte, chunkHdrSize, chunkHdrSize+th)
	binary.BigEndian.PutUint32(buf[0:], uint32(int32(tag)))
	binary.BigEndian.PutUint64(buf[4:], msgID)
	binary.BigEndian.PutUint32(buf[16:], uint32(total))
	for i := 0; i < total; i++ {
		lo := i * th
		hi := lo + th
		if hi > len(data) {
			hi = len(data)
		}
		binary.BigEndian.PutUint32(buf[12:], uint32(i))
		buf = append(buf[:chunkHdrSize], data[lo:hi]...)
		f := frame{comm: c.id, srcRank: int32(c.myRank), tag: tagChunk, data: buf}
		if err := w.tr.send(src, dstWorld, f); err != nil {
			return err
		}
		w.chunkFramesSent.Add(1)
	}
	w.chunkMsgsSent.Add(1)
	return nil
}

// reassemble admits one continuation frame delivered to world rank r
// into its message's reassembly state. It returns the reconstructed
// original frame once the last chunk lands; until then (and for
// malformed, inconsistent or duplicate continuations, which are
// dropped) ok is false. Duplicate placement is idempotent, so a fault
// layer that duplicates frames cannot corrupt the payload.
func (w *World) reassemble(r int, f frame) (frame, bool) {
	if len(f.data) < chunkHdrSize {
		return frame{}, false
	}
	origTag := int32(binary.BigEndian.Uint32(f.data[0:]))
	msgID := binary.BigEndian.Uint64(f.data[4:])
	idx := int(binary.BigEndian.Uint32(f.data[12:]))
	total := int(binary.BigEndian.Uint32(f.data[16:]))
	if total <= 0 || total > maxChunksPerMsg || idx < 0 || idx >= total {
		return frame{}, false
	}
	key := chunkKey{comm: f.comm, src: f.srcRank, dst: int32(r), msgID: msgID}
	w.chunkMu.Lock()
	a := w.chunkAsm[key]
	if a == nil {
		a = &chunkAsm{tag: origTag, parts: make([][]byte, total)}
		w.chunkAsm[key] = a
	}
	if len(a.parts) != total || a.tag != origTag || a.parts[idx] != nil {
		w.chunkMu.Unlock()
		return frame{}, false
	}
	a.parts[idx] = f.data[chunkHdrSize:]
	a.have++
	a.size += len(f.data) - chunkHdrSize
	done := a.have == total
	if done {
		delete(w.chunkAsm, key)
	}
	w.chunkMu.Unlock()
	w.chunkFramesRecv.Add(1)
	if !done {
		return frame{}, false
	}
	data := make([]byte, 0, a.size)
	for _, p := range a.parts {
		data = append(data, p...)
	}
	w.chunkMsgsAsm.Add(1)
	return frame{comm: f.comm, srcRank: f.srcRank, tag: a.tag, seq: f.seq, data: data}, true
}
