package kv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Record is one key-value pair in serialized form. The runtime moves
// Records; user code sees decoded values at the MPI_D_Send/Recv boundary.
type Record struct {
	Key   []byte
	Value []byte
}

// Size returns the framed size of the record in a buffer (varint lengths
// plus payloads). It is used for buffer-threshold accounting (SPL/RPL).
func (r Record) Size() int {
	return uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Value))) + len(r.Value)
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// AppendRecord appends the framed record to buf:
// uvarint(len(key)) | key | uvarint(len(value)) | value.
func AppendRecord(buf []byte, r Record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(r.Key)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, r.Key...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.Value)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, r.Value...)
	return buf
}

// ReadRecord parses one framed record from b, returning the record and the
// number of bytes consumed. The returned slices alias b.
func ReadRecord(b []byte) (Record, int, error) {
	klen, n := binary.Uvarint(b)
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("kv: bad key length varint")
	}
	off := n
	if uint64(len(b)-off) < klen {
		return Record{}, 0, fmt.Errorf("kv: truncated key: need %d have %d", klen, len(b)-off)
	}
	key := b[off : off+int(klen)]
	off += int(klen)
	vlen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("kv: bad value length varint")
	}
	off += n
	if uint64(len(b)-off) < vlen {
		return Record{}, 0, fmt.Errorf("kv: truncated value: need %d have %d", vlen, len(b)-off)
	}
	val := b[off : off+int(vlen)]
	off += int(vlen)
	return Record{Key: key, Value: val}, off, nil
}

// errBadLength is a length varint that overflows 64 bits.
var errBadLength = errors.New("kv: bad length varint")

// parseRecord is ReadRecord for a window that may end inside a record.
// n > 0 means b holds the whole record. n < 0 with a nil error means it
// holds only a prefix of it, and -n (> len(b)) is a lower bound on the
// bytes the record spans, capped at math.MaxInt.
func parseRecord(b []byte) (rec Record, n int, err error) {
	klen, kn := binary.Uvarint(b)
	if kn < 0 {
		return Record{}, 0, errBadLength
	}
	if kn == 0 {
		return Record{}, -(len(b) + 1), nil
	}
	if uint64(len(b)-kn) <= klen {
		// The key, or the value varint after it, is not all here.
		return Record{}, -needBytes(kn+1, klen), nil
	}
	off := kn + int(klen)
	vlen, vn := binary.Uvarint(b[off:])
	if vn < 0 {
		return Record{}, 0, errBadLength
	}
	if vn == 0 {
		return Record{}, -(len(b) + 1), nil
	}
	if uint64(len(b)-off-vn) < vlen {
		return Record{}, -needBytes(off+vn, vlen), nil
	}
	end := off + vn + int(vlen)
	return Record{Key: b[kn:off], Value: b[off+vn : end]}, end, nil
}

// needBytes is have + more, capped at math.MaxInt so that a corrupt length
// cannot wrap into a small bound.
func needBytes(have int, more uint64) int {
	if more > uint64(math.MaxInt-have) {
		return math.MaxInt
	}
	return have + int(more)
}

// Writer streams framed records to an io.Writer (spill files, checkpoints,
// HDFS output). It does not buffer: every Write hands one whole framed
// record to the underlying writer before returning, so closing the
// underlying writer is all a caller needs to do. Callers wanting fewer
// syscalls put the buffer underneath: a bufio.Writer they flush, or an
// hdfs.Writer, which stages one 256 KiB packet.
//
// A writer with a bufio-style AvailableBuffer (bufio.Writer, bytes.Buffer,
// hdfs.Writer) gets each record encoded straight into its free space, so
// the record's bytes are written once. A record that does not fit there
// is encoded into the Writer's own buffer, which is reused across records.
type Writer struct {
	w     io.Writer
	avail availableBuffer // w's AvailableBuffer, or nil
	buf   []byte
	n     int64 // records written
}

// availableBuffer is bufio.Writer's AvailableBuffer: an empty slice over
// the writer's free space, which a caller appends to and passes to Write.
type availableBuffer interface {
	AvailableBuffer() []byte
}

// NewWriter returns a record Writer over w.
func NewWriter(w io.Writer) *Writer {
	ab, _ := w.(availableBuffer)
	return &Writer{w: w, avail: ab}
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	var buf []byte
	if w.avail != nil {
		buf = w.avail.AvailableBuffer()
	}
	if cap(buf) >= r.Size() {
		buf = AppendRecord(buf, r)
	} else {
		w.buf = AppendRecord(w.buf[:0], r)
		buf = w.buf
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count reports how many records have been written.
func (w *Writer) Count() int64 { return w.n }

// Reader streams framed records from an io.Reader.
type Reader struct {
	r *bufio.Reader
}

// NewReader returns a record Reader over r.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{r: br}
}

// Read returns the next record, or io.EOF at a clean end of stream. The
// returned record's slices are owned by the caller.
func (r *Reader) Read() (Record, error) {
	klen, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("kv: reading key length: %w", err)
	}
	key, err := readN(r.r, klen)
	if err != nil {
		return Record{}, fmt.Errorf("kv: reading key: %w", err)
	}
	vlen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("kv: reading value length: %w", err)
	}
	val, err := readN(r.r, vlen)
	if err != nil {
		return Record{}, fmt.Errorf("kv: reading value: %w", err)
	}
	return Record{Key: key, Value: val}, nil
}

// readN reads exactly n bytes, growing the buffer in bounded chunks so a
// corrupt length prefix cannot allocate memory the stream never backs.
func readN(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := []byte{}
	for uint64(len(buf)) < n {
		c := n - uint64(len(buf))
		if c > chunk {
			c = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// CountRecords walks a framed buffer and returns how many records it
// holds without materializing them — the receive-side record counter can
// afford this on every shuffle message because it only reads the length
// varints and skips the payloads.
func CountRecords(b []byte) (int64, error) {
	var n int64
	for len(b) > 0 {
		_, adv, err := ReadRecord(b)
		if err != nil {
			return 0, err
		}
		b = b[adv:]
		n++
	}
	return n, nil
}

// DecodeAll parses every record in b (a fully framed buffer). Returned
// records alias b.
func DecodeAll(b []byte) ([]Record, error) {
	return DecodeAllInto(nil, b)
}

// DecodeAllInto is DecodeAll appending into recs, so a caller on a hot
// path can hand back the same slice (recs[:0]) and amortize the header
// array across messages. Returned records alias b.
func DecodeAllInto(recs []Record, b []byte) ([]Record, error) {
	for len(b) > 0 {
		rec, n, err := ReadRecord(b)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		b = b[n:]
	}
	return recs, nil
}

// Compare is the key comparator signature (the paper's MPI_D_Compare).
// It must return <0, 0, >0 like bytes.Compare.
type Compare func(a, b []byte) int

// DefaultCompare orders keys by raw bytes. The built-in codecs are
// order-preserving (int64 and float64 use order-preserving encodings), so
// raw-byte order equals natural order for all built-in key types.
func DefaultCompare(a, b []byte) int { return bytes.Compare(a, b) }

// keyPrefix is the key's first 8 bytes as a big-endian integer, zero-padded
// when the key is shorter. Prefix order agrees with raw-byte order wherever
// prefixes differ; equal prefixes ("ab" vs "ab\x00") decide nothing, so a
// tie must fall back to comparing the full keys.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// prefixIdx is one row of the raw-order sort: a key prefix beside the
// record's position.
type prefixIdx struct {
	pfx uint64
	idx int32
}

// radixMin is the row count below which sortRows uses a comparison sort:
// every radix pass walks 256 buckets however few rows there are.
const radixMin = 64

// sortRows sorts rows by prefix, then by full key (key returns the key of
// row index idx), then by idx, and returns the sorted rows, which are
// either rows or buf (as long as rows).
//
// It is a stable LSD radix sort over the prefix's 8 bytes, skipping every
// byte on which all rows agree. Rows enter in idx order, so equal prefixes
// leave in idx order too, and only those runs still need the full keys: a
// run whose keys are all equal is already in order, which keeps a large
// duplicate group linear.
func sortRows(rows, buf []prefixIdx, key func(int32) []byte) []prefixIdx {
	byKey := func(a, b prefixIdx) int {
		if a.pfx != b.pfx {
			if a.pfx < b.pfx {
				return -1
			}
			return 1
		}
		if c := bytes.Compare(key(a.idx), key(b.idx)); c != 0 {
			return c
		}
		return int(a.idx) - int(b.idx)
	}
	if len(rows) < radixMin {
		slices.SortFunc(rows, byKey)
		return rows
	}
	rows = radixSortPrefix(rows, buf[:len(rows)])
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].pfx == rows[i].pfx {
			j++
		}
		if run := rows[i:j]; len(run) > 1 && !sameKeys(run, key) {
			slices.SortFunc(run, byKey)
		}
		i = j
	}
	return rows
}

// radixSortPrefix stably sorts rows by prefix alone, ping-ponging through
// buf, and returns whichever of the two holds the result.
func radixSortPrefix(rows, buf []prefixIdx) []prefixIdx {
	var counts [8][256]int32
	for _, r := range rows {
		p := r.pfx
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
	}
	n := int32(len(rows))
	src, dst := rows, buf
	for d := range counts {
		c, shift := &counts[d], uint(8*d)
		if c[byte(rows[0].pfx>>shift)] == n {
			continue // every row has this byte: the pass would move nothing
		}
		var sum int32
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, r := range src {
			b := byte(r.pfx >> shift)
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// sameKeys reports whether every row of run has the same full key.
func sameKeys(run []prefixIdx, key func(int32) []byte) bool {
	k0 := key(run[0].idx)
	for _, r := range run[1:] {
		if !bytes.Equal(key(r.idx), k0) {
			return false
		}
	}
	return true
}

// rowSort is the raw-order sort's working memory, shared by SortRecords
// and SortFramed: one (key prefix, index) row per record, in record order,
// and the radix sort's second row buffer. An index is whatever locates
// the record and grows in record order: SortRecords uses its position in
// the slice, SortFramed its offset in the frame. Either way equal keys
// keep record order.
type rowSort struct {
	rows, buf []prefixIdx
}

// reset empties the rows for a new batch, keeping their memory.
func (s *rowSort) reset() { s.rows = s.rows[:0] }

// add appends the row of the next record: its key and its index.
func (s *rowSort) add(key []byte, idx int32) {
	s.rows = append(s.rows, prefixIdx{pfx: keyPrefix(key), idx: idx})
}

// sort orders the rows added since reset (sortRows); key returns the key
// of the record at idx. The result is valid until the next add.
func (s *rowSort) sort(key func(int32) []byte) []prefixIdx {
	if cap(s.buf) < len(s.rows) {
		s.buf = make([]prefixIdx, cap(s.rows))
	}
	return sortRows(s.rows, s.buf[:len(s.rows)], key)
}

// sortScratch is SortRecords' reusable working memory: the permutation
// being sorted (an index column, or rows in raw-byte order) and the
// buffer the permutation is applied through. Pooled because the hot path
// sorts one SPL batch per flush.
type sortScratch struct {
	idx  []int32
	rows rowSort
	tmp  []Record
}

var sortScratchPool sync.Pool

// SortRecords sorts recs in place by key under cmp, using a stable sort so
// values with equal keys retain emission order (as Hadoop's sort does).
// A nil cmp means raw-byte order (DefaultCompare).
//
// A Record is two slice headers, so sorting the records directly makes
// every swap a 48-byte pointer-ful move paying GC write barriers —
// sort.SliceStable's reflection swapper on top of that dominated shuffle
// CPU profiles. Instead, sort an int32 permutation (pdqsort over plain
// ints, no barriers) with the original position as tiebreak — which IS
// emission-order stability — and apply it with 2n Record moves. In
// raw-byte order each row instead carries the key's 8-byte prefix and is
// radix sorted on it (sortRows); only prefix ties read the full keys.
func SortRecords(recs []Record, cmp Compare) {
	n := len(recs)
	if n < 2 {
		return
	}
	if n > math.MaxInt32 {
		if cmp == nil {
			cmp = DefaultCompare
		}
		slices.SortStableFunc(recs, func(a, b Record) int { return cmp(a.Key, b.Key) })
		return
	}
	s, _ := sortScratchPool.Get().(*sortScratch)
	if s == nil {
		s = &sortScratch{}
	}
	if cap(s.tmp) < n {
		s.tmp = make([]Record, n)
	}
	tmp := s.tmp[:n]
	if cmp == nil {
		s.rows.reset()
		for i, r := range recs {
			s.rows.add(r.Key, int32(i))
		}
		for i, r := range s.rows.sort(func(i int32) []byte { return recs[i].Key }) {
			tmp[i] = recs[r.idx]
		}
	} else {
		if cap(s.idx) < n {
			s.idx = make([]int32, n)
		}
		idx := s.idx[:n]
		for i := range idx {
			idx[i] = int32(i)
		}
		slices.SortFunc(idx, func(a, b int32) int {
			if c := cmp(recs[a].Key, recs[b].Key); c != 0 {
				return c
			}
			return int(a) - int(b)
		})
		for i, j := range idx {
			tmp[i] = recs[j]
		}
	}
	copy(recs, tmp)
	// Drop the aliased headers before pooling so the scratch does not pin
	// the sorted batch's backing arrays until its next use.
	clear(tmp)
	sortScratchPool.Put(s)
}

// FrameSorter is SortFramed's reusable working memory. The zero value is
// ready to use. A FrameSorter is not safe for concurrent use; a caller
// sorting on several goroutines keeps one per goroutine, which also keeps
// its memory across garbage collections, as a sync.Pool would not.
type FrameSorter struct {
	rows rowSort // a row's index is its record's offset in the frame
}

// SortFramed is FrameSorter.SortFramed on a fresh FrameSorter.
func SortFramed(dst, src []byte) ([]byte, int, error) {
	var s FrameSorter
	return s.SortFramed(dst, src)
}

// SortFramed appends the records of the framed buffer src to dst in
// raw-byte key order, equal keys in their order in src, and returns the
// extended dst and the record count. The bytes are those of DecodeAll,
// SortRecords(recs, nil) and AppendRecord, but no Record is built: the
// rows are built from the frame bytes, sorted (sortRows), and each
// record's bytes are copied to dst once, after growing dst by len(src).
// It fails exactly when DecodeAll(src) does, and then returns dst as is.
func (s *FrameSorter) SortFramed(dst, src []byte) ([]byte, int, error) {
	if len(src) > math.MaxInt32 {
		return sortDecoded(dst, src)
	}
	s.rows.reset()
	for off := 0; off < len(src); {
		key, n, err := recordKey(src[off:])
		if err != nil {
			return dst, 0, err
		}
		s.rows.add(key, int32(off))
		off += n
	}
	// Every record parsed above, so the re-parses below cannot fail.
	rows := s.rows.sort(func(off int32) []byte {
		key, _, _ := recordKey(src[off:])
		return key
	})
	dst = slices.Grow(dst, len(src))
	for _, r := range rows {
		_, n, _ := recordKey(src[r.idx:])
		dst = append(dst, src[r.idx:int(r.idx)+n]...)
	}
	return dst, len(rows), nil
}

// recordKey is ReadRecord for a caller that needs only the key and the
// record's length, with a fast path for one-byte length varints.
func recordKey(b []byte) (key []byte, n int, err error) {
	if len(b) >= 2 && b[0] < 0x80 {
		if k := 1 + int(b[0]); k < len(b) && b[k] < 0x80 {
			if end := k + 1 + int(b[k]); end <= len(b) {
				return b[1:k], end, nil
			}
		}
	}
	rec, n, err := ReadRecord(b)
	return rec.Key, n, err
}

// sortDecoded is SortFramed for a frame too long for int32 offsets.
func sortDecoded(dst, src []byte) ([]byte, int, error) {
	recs, err := DecodeAll(src)
	if err != nil {
		return dst, 0, err
	}
	SortRecords(recs, nil)
	dst = slices.Grow(dst, len(src))
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	return dst, len(recs), nil
}

// Partition is the partitioner signature (the paper's MPI_D_Partition):
// given a record's key and value it selects the destination A-task index in
// [0, numA).
type Partition func(key, value []byte, numA int) int

// DefaultPartition is hash-modulo over the key (FNV-1a), the default policy
// required by the paper's specification.
func DefaultPartition(key, _ []byte, numA int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return int(h % uint64(numA))
}

// Combine is the combiner signature (the paper's MPI_D_Combine): it folds
// all values emitted for one key into a smaller set of values before
// transmission.
type Combine func(key []byte, values [][]byte) [][]byte
