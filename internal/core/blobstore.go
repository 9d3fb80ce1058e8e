package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"datampi/internal/kv"
)

// Large-value data plane (the BigMPI direction applied to the key-value
// layer): Context.SendValue splits an oversized value into blob
// continuation frames — ordinary data frames flagged flagValueChunk whose
// payload is raw value bytes, not framed records — and emits a small
// placeholder record through the normal SPL path. The receive side lands
// each chunk in this disk-backed store by (round, blobID, offset), and A
// tasks stream the bytes back out through Group.ValueReader. Neither the
// sender's SPL nor the receiver's merge state ever holds the full value:
// peak memory on both sides is one chunk.
//
// Chunks address the blob by byte offset rather than chunk index, so
// out-of-order delivery — replayed checkpoint frames interleaving with a
// re-run's live frames after a partial restart — lands idempotently:
// writing the same bytes at the same offset twice is a no-op.

// blobRef is the placeholder value a SendValue leaves in the record
// stream: blobMagic | blobID u64 | totalLen u64. It is opaque to sorting,
// spilling and checkpointing, and resolved back to the blob at
// Group.ValueReader time.
const blobRefLen = 24

// blobHdrLen heads every blob continuation frame's payload (after the
// standard frame header): blobID u64 | offset u64 | totalLen u64.
const blobHdrLen = 24

// blobMagic distinguishes placeholder values from ordinary 24-byte user
// values; the resolver additionally requires a live store entry, so a
// colliding user value would also have to name an existing blobID.
var blobMagic = [8]byte{0xD7, 0xA1, 0xAB, 0x1E, 0xB1, 0x0B, 0xED, 0x01}

// appendBlobRef encodes a placeholder value.
func appendBlobRef(dst []byte, id uint64, total int64) []byte {
	dst = append(dst, blobMagic[:]...)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(total))
	return dst
}

// parseBlobRef decodes a placeholder value; ok=false for ordinary values.
func parseBlobRef(v []byte) (id uint64, total int64, ok bool) {
	if len(v) != blobRefLen || string(v[:8]) != string(blobMagic[:]) {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(v[8:]), int64(binary.BigEndian.Uint64(v[16:])), true
}

// blobKey identifies one streamed value at its receiver. blobID is unique
// per sending task (task ordinal in the high bits, per-context sequence in
// the low), and deterministic re-runs reproduce the same ids, which is what
// makes replayed and re-sent chunks land on the same entry.
type blobKey struct {
	round int
	id    uint64
}

type blob struct {
	f     *os.File
	total int64
	recvd int64
	got   map[int64]struct{} // offsets already written
}

// blobStore is a process's receive-side store for streamed values. Chunks
// are written to per-blob files in a private temp directory — never
// buffered whole in memory — and served back as section readers. ingest
// runs on the dataReceiver goroutine; open runs on A-task goroutines.
type blobStore struct {
	p *process

	mu    sync.Mutex
	dir   string
	blobs map[blobKey]*blob
}

func newBlobStore(p *process) *blobStore {
	return &blobStore{p: p, blobs: make(map[blobKey]*blob)}
}

// ingest lands one continuation-frame payload: blobID | offset | total |
// bytes. Duplicate offsets (re-delivered or replayed chunks) are dropped;
// a total that disagrees with an earlier chunk of the same blob is
// corruption and fails the job.
func (s *blobStore) ingest(round int, payload []byte) error {
	if len(payload) < blobHdrLen {
		return fmt.Errorf("core: blob chunk payload %d bytes", len(payload))
	}
	id := binary.BigEndian.Uint64(payload)
	off := int64(binary.BigEndian.Uint64(payload[8:]))
	total := int64(binary.BigEndian.Uint64(payload[16:]))
	data := payload[blobHdrLen:]
	if off < 0 || total < 0 || off+int64(len(data)) > total {
		return fmt.Errorf("core: blob %#x chunk [%d,+%d) exceeds total %d", id, off, len(data), total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := blobKey{round: round, id: id}
	b := s.blobs[k]
	if b == nil {
		if s.dir == "" {
			dir, err := os.MkdirTemp("", fmt.Sprintf("dmpi-blob-%d-", os.Getpid()))
			if err != nil {
				return err
			}
			s.dir = dir
		}
		f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("r%d_b%x", round, id)))
		if err != nil {
			return err
		}
		b = &blob{f: f, total: total, got: make(map[int64]struct{})}
		s.blobs[k] = b
	}
	if b.total != total {
		return fmt.Errorf("core: blob %#x total mismatch: %d then %d", id, b.total, total)
	}
	if _, dup := b.got[off]; dup {
		return nil
	}
	if _, err := b.f.WriteAt(data, off); err != nil {
		return err
	}
	b.got[off] = struct{}{}
	b.recvd += int64(len(data))
	s.p.rt.ctrs.blobChunksRecv.Add(1)
	s.p.rt.ctrs.blobBytesRecv.Add(int64(len(data)))
	if b.recvd == total {
		s.p.rt.ctrs.blobValuesRecv.Add(1)
	}
	return nil
}

// open resolves a placeholder value to a reader over the stored blob.
// ok=false means v is an ordinary value. A placeholder naming an
// incomplete blob is an error — it cannot occur through the normal
// protocol, because every chunk precedes its placeholder on the same
// in-order stream and A tasks start only after all end markers.
func (s *blobStore) open(round int, v []byte) (io.Reader, bool, error) {
	id, total, ok := parseBlobRef(v)
	if !ok {
		return nil, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blobs[blobKey{round: round, id: id}]
	if b == nil {
		return nil, false, nil
	}
	if b.total != total || b.recvd != total {
		return nil, true, fmt.Errorf("core: blob %#x incomplete: %d of %d bytes", id, b.recvd, total)
	}
	return io.NewSectionReader(b.f, 0, total), true, nil
}

// resolver adapts the store to the kv.ValueResolver shape for one round.
func (s *blobStore) resolver(round int) kv.ValueResolver {
	return func(v []byte) (io.Reader, bool, error) { return s.open(round, v) }
}

// BlobDirs is the glob, relative to os.TempDir, matching every blob
// directory the OS process pid made. A launcher removes a dead worker's
// with it: a worker that is killed cannot remove its own.
func BlobDirs(pid int) string { return fmt.Sprintf("dmpi-blob-%d-*", pid) }

// close releases every blob file and the backing directory (end of run).
func (s *blobStore) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.blobs {
		if b.f != nil {
			b.f.Close()
			b.f = nil
		}
	}
	s.blobs = nil
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}
