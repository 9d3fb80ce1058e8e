package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"datampi/internal/kv"
)

// Buffer management (§IV-D): each task owns a Send Partition List (SPL) —
// one append buffer per destination partition. When a partition buffer
// crosses the SPL threshold it is sealed and handed to the process's
// communication thread, which sorts (if the mode requires), combines, and
// transmits it. A job that combines in raw-byte order keeps a
// kv.CombineTable per partition instead, grouping records as they are
// emitted; it seals at the same points, and the pool turns it into the
// same frame bytes. On the receive side, sealed buffers accumulate in a
// Receive Partition List (RPL) per partition; when the merge queue grows
// past the memory-cache threshold, runs are merged and spilled to disk.

// sendItem is one sealed SPL buffer travelling to the communication thread.
// data is a framed buffer: frameHeaderLen reserved header bytes followed
// by the record bytes, so transmit needs only an in-place header write —
// no copy. A sealed combine table travels as table instead, data nil,
// until the prepare stage turns it into a frame.
type sendItem struct {
	task      int
	partition int
	reverse   bool // Iteration mode A->O traffic
	data      []byte
	table     *kv.CombineTable
	records   int64
	// idx is the per-(task, partition) frame sequence number assigned when
	// the SPL sealed this buffer. It travels in the wire header and the
	// checkpoint chunk payload, so receivers can deduplicate replayed
	// frames after a partial restart.
	idx int64
	// prepared marks data already sorted/combined (checkpoint reloads).
	prepared bool
	// noCheckpoint suppresses re-checkpointing (checkpoint reloads).
	noCheckpoint bool
	// cpSeal marks a checkpoint-round boundary: the task has drained every
	// partition buffer, so everything appended to its chunk so far is an
	// emission-order prefix and can be committed (§IV-E, Fig. 7). A cpSeal
	// with task < 0 seals every open chunk on the process (the rejoin
	// barrier after a partial restart).
	cpSeal bool
	// valueChunk marks a streamed-value continuation frame (SendValue):
	// the payload is a blob chunk (blobID | offset | total | bytes), not
	// framed records. Such items are always prepared (never sorted or
	// combined) and carry records == 0, so checkpoint record counts and
	// skip bookkeeping see only the placeholder record.
	valueChunk bool
}

// Wire format of a data message, laid out so the SPL can reserve the whole
// header up front and transmit writes it in place:
//
//	u32 round | u32 partition | u8 flags | u32 task | u64 idx | framed records
//
// The payload fed to checkpoints and decodePayload is everything from
// framePartOff on, so committed chunks self-describe which (task,
// partition, idx) frame each entry was. task 0xFFFFFFFF encodes the
// sentinel -1 (end markers, reloads that predate dedup).
const (
	frameRoundOff  = 0
	framePartOff   = 4
	frameFlagsOff  = 8
	frameTaskOff   = 9
	frameIdxOff    = 13
	frameHeaderLen = 21
)

const (
	flagReverse = 1 << 0
	// flagValueChunk marks a blob continuation frame: the payload after
	// the header is blobHdrLen of blob metadata followed by raw value
	// bytes, not framed records.
	flagValueChunk = 1 << 1
)

// maxPooledFrame bounds the buffers the frame pool keeps, so one outsized
// record does not pin a huge allocation forever. A buffer sealed at the
// default SPLBytes must stay below it, or no SPL frame would be recycled.
const maxPooledFrame = 1 << 20

// framePool recycles framed send buffers around the whole O-side path:
// SPL seal -> prepare re-encode -> transmit, returned once comm.Send comes
// back (the mpi ownership contract guarantees the transport no longer
// aliases the buffer at that point).
var framePool = sync.Pool{New: func() any {
	b := make([]byte, frameHeaderLen, 4<<10)
	return &b
}}

// frameBoxes recycles the *[]byte boxes framePool holds frames in, so
// recycling a frame does not allocate a box for it.
var frameBoxes = sync.Pool{New: func() any { return new([]byte) }}

// getFrame returns an empty framed buffer: header space reserved, zero
// record bytes.
func getFrame() []byte {
	bp := framePool.Get().(*[]byte)
	b := (*bp)[:frameHeaderLen]
	*bp = nil
	frameBoxes.Put(bp)
	return b
}

// putFrame recycles a framed buffer. Safe only once nothing aliases it.
func putFrame(b []byte) {
	if cap(b) < frameHeaderLen || cap(b) > maxPooledFrame {
		return
	}
	bp := frameBoxes.Get().(*[]byte)
	*bp = b[:frameHeaderLen]
	framePool.Put(bp)
}

// tableFree recycles combine tables around the same path as framePool.
// It is a bounded free list, not a sync.Pool: a pool empties at every GC,
// and a table regrown from empty allocates its arenas, chains and slots
// again at every seal. 64 covers a job's open tables (one per task and
// partition) and the sealed ones in flight.
var tableFree = make(chan *kv.CombineTable, 64)

func getTable() *kv.CombineTable {
	select {
	case t := <-tableFree:
		return t
	default:
		return new(kv.CombineTable)
	}
}

// putTable recycles a table once its records are combined. Like
// maxPooledFrame for frames, a table that one outsized record grew is
// dropped.
func putTable(t *kv.CombineTable) {
	if t.Size() > maxPooledFrame {
		return
	}
	t.Reset()
	select {
	case tableFree <- t:
	default:
	}
}

// writeFrameHeader fills the reserved header bytes in place.
func writeFrameHeader(frame []byte, round, partition int, reverse bool, valueChunk bool, task int, idx int64) {
	binary.BigEndian.PutUint32(frame[frameRoundOff:], uint32(round))
	binary.BigEndian.PutUint32(frame[framePartOff:], uint32(partition))
	var flags byte
	if reverse {
		flags = flagReverse
	}
	if valueChunk {
		flags |= flagValueChunk
	}
	frame[frameFlagsOff] = flags
	binary.BigEndian.PutUint32(frame[frameTaskOff:], uint32(int32(task)))
	binary.BigEndian.PutUint64(frame[frameIdxOff:], uint64(idx))
}

// spl is one task's Send Partition List: one sendItem per destination
// partition, filling until it seals.
type spl struct {
	parts   []sendItem
	maxSize int
	// maxRecords additionally seals a partition buffer by record count.
	// Streaming sets it below the credit window so no single sealed frame
	// can ever need more credits than the window holds. 0 disables.
	maxRecords int64
	// tables makes every partition buffer a kv.CombineTable (Combine set,
	// Compare nil).
	tables bool
	// frameSeq is the next frame index per partition. After a partial
	// restart the replacement seeds it with the committed frame counts, so
	// a deterministic re-run reproduces the same (partition, idx) labels
	// as the lost incarnation and survivors can drop the duplicates.
	frameSeq []int64
	// sealed is the buffer add sealed last: add returns it by pointer,
	// valid until the next add, so the per-record path neither copies an
	// item out nor allocates one.
	sealed sendItem
}

// splSlack is the headroom a presized SPL buffer keeps past maxSize for
// the record that crosses it.
const splSlack = 1 << 10

// rawBytes is the record bytes a sealed buffer holds, framed: data past
// its header, or the table's Size. It is what SendRecord charged to the
// memory gauge.
func (it *sendItem) rawBytes() int {
	if it.table != nil {
		return it.table.Size()
	}
	return max(len(it.data)-frameHeaderLen, 0)
}

func newSPL(numPartitions, maxSize int) *spl {
	return &spl{
		parts:    make([]sendItem, numPartitions),
		maxSize:  maxSize,
		frameSeq: make([]int64, numPartitions),
	}
}

// seedFrameSeq advances the per-partition frame counters to start after
// the already-committed frames (partial-restart replacement ranks).
func (s *spl) seedFrameSeq(counts map[int]int64) {
	for p, n := range counts {
		if p >= 0 && p < len(s.frameSeq) && n > s.frameSeq[p] {
			s.frameSeq[p] = n
		}
	}
}

// add appends a record to partition p; it returns the sealed buffer when
// the partition buffer crossed the threshold, else nil. Buffers come from
// the frame pool with header space already reserved, tables from
// tableFree.
func (s *spl) add(p int, rec kv.Record) *sendItem {
	b := &s.parts[p]
	if s.tables {
		if b.table == nil {
			b.table = getTable()
		}
		b.table.Add(rec.Key, rec.Value)
	} else {
		if b.data == nil {
			b.data = getFrame()
		}
		if need := len(b.data) + rec.Size(); need > cap(b.data) && s.maxRecords == 0 {
			// A size-sealed buffer that outgrows its pooled frame ends just
			// past maxSize: grow to that once instead of through append's
			// doublings (about twice the bytes). Buffers that stay small keep
			// the pooled frame, and record-capped (streaming) buffers grow as
			// usual.
			b.data = slices.Grow(b.data, max(need, frameHeaderLen+s.maxSize+splSlack)-len(b.data))
		}
		b.data = kv.AppendRecord(b.data, rec)
	}
	b.records++
	if b.rawBytes() >= s.maxSize || (s.maxRecords > 0 && b.records >= s.maxRecords) {
		s.sealed = s.seal(p)
		return &s.sealed
	}
	return nil
}

// seal takes partition p's buffer out of the SPL, labelled with its
// partition and frame index.
func (s *spl) seal(p int) sendItem {
	it := s.parts[p]
	it.partition, it.idx = p, s.frameSeq[p]
	s.frameSeq[p]++
	s.parts[p] = sendItem{}
	return it
}

// drain seals and returns every non-empty partition buffer.
func (s *spl) drain() []sendItem {
	var out []sendItem
	for p := range s.parts {
		if s.parts[p].records > 0 {
			out = append(out, s.seal(p))
		}
	}
	return out
}

// decodePayload parses the message payload (everything after the round
// word): u32 partition | u8 flags | u32 task | u64 idx | records.
func decodePayload(b []byte) (partition int, reverse, valueChunk bool, task int, idx int64, records []byte, err error) {
	if len(b) < frameHeaderLen-framePartOff {
		return 0, false, false, 0, 0, nil, fmt.Errorf("core: data payload %d bytes", len(b))
	}
	partition = int(binary.BigEndian.Uint32(b))
	reverse = b[4]&flagReverse != 0
	valueChunk = b[4]&flagValueChunk != 0
	task = int(int32(binary.BigEndian.Uint32(b[frameTaskOff-framePartOff:])))
	idx = int64(binary.BigEndian.Uint64(b[frameIdxOff-framePartOff:]))
	return partition, reverse, valueChunk, task, idx, b[frameHeaderLen-framePartOff:], nil
}

// prepScratch is one prepare worker's working memory, kept across the
// frames it prepares (and across collections, unlike a sync.Pool).
type prepScratch struct {
	recs   []kv.Record // record headers on the decode path
	sorter kv.FrameSorter
}

// prepareFrame turns a sealed item into the frame to transmit, sorted
// and combined according to the config, and marks it prepared.
//
// A sealed combine table is combined straight into a fresh pooled frame
// (kv.CombineTable.AppendCombined) and recycled; in steady state that
// allocates nothing beyond what the combiner does. A frame sorted in
// raw-byte order with no combiner (TeraSort) stays bytes: kv.SortFramed
// sorts rows built from the frame and copies each record once into a
// fresh pooled frame. Any other frame is decoded into records, sorted and
// combined under the config's Compare, and re-encoded into a fresh pooled
// frame. Either way the records alias the input, so the reorder cannot be
// done in place, and the input is recycled. All three produce the same
// bytes whenever more than one applies. When the config needs neither
// sort nor combine the input frame is returned as is.
func prepareFrame(cfg *Config, item *sendItem, scratch *prepScratch) error {
	item.prepared = true
	if t := item.table; t != nil {
		item.data, item.records = t.AppendCombined(getFrame(), cfg.Combine)
		item.table = nil
		putTable(t)
		return nil
	}
	frame := item.data
	if !cfg.sorted() && cfg.Combine == nil {
		return nil
	}
	if cfg.Compare == nil && cfg.Combine == nil {
		out, n, err := scratch.sorter.SortFramed(getFrame(), frame[frameHeaderLen:])
		if err != nil {
			putFrame(out)
			return err
		}
		putFrame(frame)
		item.data, item.records = out, int64(n)
		return nil
	}
	recs, err := kv.DecodeAllInto(scratch.recs[:0], frame[frameHeaderLen:])
	if err != nil {
		return err
	}
	scratch.recs = recs
	kv.SortRecords(recs, cfg.Compare)
	if cfg.Combine != nil {
		recs = kv.ApplyCombine(recs, cfg.compare(), cfg.Combine)
	}
	// Sorted output is exactly as long as the input (combined output no
	// longer): reserve it once instead of growing through append's
	// doublings to twice a full SPL buffer.
	out := slices.Grow(getFrame(), len(frame)-frameHeaderLen)
	for _, r := range recs {
		out = kv.AppendRecord(out, r)
	}
	putFrame(frame)
	item.data, item.records = out, int64(len(recs))
	return nil
}
