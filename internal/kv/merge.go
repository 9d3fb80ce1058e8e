package kv

import (
	"bytes"
	"fmt"
	"io"
	"math"
)

// Iterator yields a sorted run of records. Next returns io.EOF at the end of
// the run. Implementations are single-goroutine.
type Iterator interface {
	Next() (Record, error)
}

// SliceIterator iterates an in-memory run.
type SliceIterator struct {
	recs []Record
	i    int
}

// NewSliceIterator returns an Iterator over recs (which must already be
// sorted if used as a merge input).
func NewSliceIterator(recs []Record) *SliceIterator { return &SliceIterator{recs: recs} }

// Next implements Iterator.
func (s *SliceIterator) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// ReaderIterator adapts a *Reader (a spilled run on disk) to Iterator.
type ReaderIterator struct{ R *Reader }

// Next implements Iterator.
func (r ReaderIterator) Next() (Record, error) { return r.R.Read() }

// framedWindow is the read size of a reader-backed FramedRun: the SPL
// default, so a spilled run comes back in reads as large as the frames
// it was received in.
const framedWindow = 256 << 10

// FramedRun iterates one framed run (AppendRecord's framing), decoding
// lazily: a consumer holds one cursor per run instead of a materialized
// []Record, and the records alias the run's bytes.
//
// Over a buffer (NewFramedRun) the records alias that buffer. Over a
// reader (NewFramedRunReader) they alias windows of framedWindow bytes
// read from it. A refill copies the unread tail into a fresh window and
// never reuses an old one, so a returned record stays valid for as long
// as the caller holds it, as over a buffer. A record longer than the
// window grows it one framedWindow at a time, so a window never exceeds
// the bytes read plus framedWindow and a corrupt length prefix cannot
// allocate memory the source never backs. A source that ends inside a
// record is an error, never a clean EOF.
type FramedRun struct {
	rest []byte
	src  io.Reader // nil: rest is the whole run
	err  error     // the source's end (io.EOF) or failure, once seen
}

// NewFramedRun returns a cursor over the framed records in b.
func NewFramedRun(b []byte) *FramedRun { return &FramedRun{rest: b} }

// NewFramedRunReader returns a cursor over the framed records read from
// r in windows of framedWindow bytes.
func NewFramedRunReader(r io.Reader) *FramedRun { return &FramedRun{src: r} }

// Next implements Iterator.
func (r *FramedRun) Next() (Record, error) {
	if r.src == nil {
		if len(r.rest) == 0 {
			return Record{}, io.EOF
		}
		rec, n, err := ReadRecord(r.rest)
		if err != nil {
			return Record{}, err
		}
		r.rest = r.rest[n:]
		return rec, nil
	}
	for {
		rec, n, err := parseRecord(r.rest)
		switch {
		case n > 0:
			r.rest = r.rest[n:]
			return rec, nil
		case err != nil:
			return Record{}, err
		case r.err == nil:
			r.fill(-n)
		case r.err != io.EOF:
			return Record{}, r.err
		case len(r.rest) == 0:
			return Record{}, io.EOF
		default:
			return Record{}, fmt.Errorf("kv: truncated record: have %d bytes: %w", len(r.rest), io.ErrUnexpectedEOF)
		}
	}
}

// fill moves the unread tail into a fresh window and reads the source
// until the window is full or the source ends. need is a lower bound on
// the bytes the head record spans. A window grows past framedWindow only
// by one framedWindow beyond the tail it carries, which the source has
// already delivered.
func (r *FramedRun) fill(need int) {
	size := framedWindow
	if need > framedWindow {
		size = min(need, len(r.rest)+framedWindow)
	}
	win := make([]byte, size)
	n := copy(win, r.rest)
	m, err := io.ReadFull(r.src, win[n:])
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	r.rest, r.err = win[:n+m], err
}

// Merger performs a streaming k-way merge over sorted runs, as done by both
// the Hadoop reduce-side merge and the DataMPI RPL merge queue.
//
// It is a tournament (loser) tree over the runs' head records: tree[0] is
// the run whose head goes out next and tree[1:] hold the loser of the match
// at each internal node (runs are leaves k..2k-1, run i at node k+i).
// Advancing the winner replays only its leaf-to-root path, ⌈log2 k⌉
// matches. Each tree entry carries its run's head prefix: in raw-byte
// order (cmp == nil) the key's 8-byte prefix, under a custom cmp 0; an
// exhausted run's is MaxUint64. A match is then one integer compare on the
// tree alone, and only equal prefixes call less, which reads the heads.
// Heads order by key under cmp, then by lower run index, so equal keys
// leave in run order.
type Merger struct {
	srcs  []Iterator
	heads []mergeHead
	tree  []loser
	cmp   Compare
	err   error
}

// loser is one tree entry: a run and its head's prefix.
type loser struct {
	pfx uint64
	run int
}

// mergeHead is one run's current record.
type mergeHead struct {
	rec  Record
	done bool // run exhausted: loses to every live head
}

// NewMerger returns a Merger over the given sorted runs under cmp. A nil
// cmp means raw-byte order (DefaultCompare), compared through the keys'
// 8-byte prefixes first.
func NewMerger(cmp Compare, srcs ...Iterator) (*Merger, error) {
	k := len(srcs)
	m := &Merger{srcs: srcs, heads: make([]mergeHead, k), tree: make([]loser, max(k, 1)), cmp: cmp}
	leaves := make([]loser, k)
	for i := range srcs {
		pfx, err := m.advance(i)
		if err != nil {
			return nil, err
		}
		leaves[i] = loser{pfx: pfx, run: i}
	}
	if k > 0 {
		m.tree[0] = m.play(1, leaves)
	}
	return m, nil
}

// advance loads run i's next record into its head and returns the prefix
// its tree entry carries.
func (m *Merger) advance(i int) (uint64, error) {
	h := &m.heads[i]
	rec, err := m.srcs[i].Next()
	if err == io.EOF {
		h.rec, h.done = Record{}, true
		return math.MaxUint64, nil
	}
	if err != nil {
		return 0, err
	}
	h.rec = rec
	if m.cmp != nil {
		return 0, nil
	}
	return keyPrefix(rec.Key), nil
}

// play runs the tournament below node, recording each match's loser, and
// returns the subtree's winner.
func (m *Merger) play(node int, leaves []loser) loser {
	if node >= len(leaves) {
		return leaves[node-len(leaves)]
	}
	w, l := m.play(2*node, leaves), m.play(2*node+1, leaves)
	if m.beats(l, w) {
		w, l = l, w
	}
	m.tree[node] = l
	return w
}

// beats reports whether entry a's head goes out before entry b's.
func (m *Merger) beats(a, b loser) bool {
	return a.pfx < b.pfx || a.pfx == b.pfx && m.less(a.run, b.run)
}

// less orders run heads whose prefixes tie: live before exhausted, then
// key, then run index.
func (m *Merger) less(a, b int) bool {
	ha, hb := &m.heads[a], &m.heads[b]
	if ha.done || hb.done {
		if ha.done != hb.done {
			return hb.done
		}
		return a < b
	}
	var c int
	if m.cmp == nil {
		c = bytes.Compare(ha.rec.Key, hb.rec.Key)
	} else {
		c = m.cmp(ha.rec.Key, hb.rec.Key)
	}
	if c != 0 {
		return c < 0
	}
	return a < b
}

// Next implements Iterator, yielding records in globally sorted order.
func (m *Merger) Next() (Record, error) {
	if m.err != nil {
		return Record{}, m.err
	}
	if len(m.heads) == 0 {
		return Record{}, io.EOF
	}
	w := m.tree[0]
	h := &m.heads[w.run]
	if h.done {
		return Record{}, io.EOF
	}
	rec := h.rec
	pfx, err := m.advance(w.run)
	if err != nil {
		m.err = err
		return Record{}, err
	}
	w.pfx = pfx
	// Replay w's path to the root.
	for node := uint(w.run+len(m.heads)) / 2; node > 0; node /= 2 {
		if l := m.tree[node]; m.beats(l, w) {
			m.tree[node], w = w, l
		}
	}
	m.tree[0] = w
	return rec, nil
}

// Group is one key together with every value that was emitted for it.
type Group struct {
	Key    []byte
	Values [][]byte

	// resolver, when set, maps placeholder values of streamed blobs
	// (Context.SendValue) to their backing readers; see ValueReader.
	resolver ValueResolver
}

// ValueResolver resolves a possibly-placeholder value to a streaming
// reader. ok=false means the value is an ordinary inline value; an error
// means the value names a blob that cannot be served (e.g. incomplete).
type ValueResolver func(v []byte) (io.Reader, bool, error)

// ValueReader returns the i-th value as an io.Reader. For ordinary values
// this is a reader over the in-memory bytes; for values emitted with
// Context.SendValue it streams the blob from the receive-side store
// without ever materializing it, so oversized values can be consumed in
// O(chunk) memory. Values[i] for such a value holds an opaque placeholder
// and must not be interpreted directly.
func (g Group) ValueReader(i int) (io.Reader, error) {
	v := g.Values[i]
	if g.resolver != nil {
		if r, ok, err := g.resolver(v); ok || err != nil {
			return r, err
		}
	}
	return bytes.NewReader(v), nil
}

// Grouper folds a sorted Iterator into per-key groups, the shape consumed by
// a reduce function. Keys compare equal under cmp iff cmp returns 0.
type Grouper struct {
	it       Iterator
	cmp      Compare
	pending  Record
	has      bool
	done     bool
	resolver ValueResolver
}

// NewGrouper returns a Grouper over a sorted iterator.
func NewGrouper(it Iterator, cmp Compare) *Grouper { return &Grouper{it: it, cmp: cmp} }

// SetValueResolver makes every Group returned by Next resolve streamed-
// blob placeholders through fn (see Group.ValueReader).
func (g *Grouper) SetValueResolver(fn ValueResolver) { g.resolver = fn }

// Next returns the next key group, or io.EOF.
func (g *Grouper) Next() (Group, error) {
	if g.done {
		return Group{}, io.EOF
	}
	if !g.has {
		rec, err := g.it.Next()
		if err == io.EOF {
			g.done = true
			return Group{}, io.EOF
		}
		if err != nil {
			return Group{}, err
		}
		g.pending, g.has = rec, true
	}
	grp := Group{Key: g.pending.Key, Values: [][]byte{g.pending.Value}, resolver: g.resolver}
	for {
		rec, err := g.it.Next()
		if err == io.EOF {
			g.done = true
			g.has = false
			return grp, nil
		}
		if err != nil {
			return Group{}, err
		}
		if g.cmp(rec.Key, grp.Key) != 0 {
			g.pending, g.has = rec, true
			return grp, nil
		}
		grp.Values = append(grp.Values, rec.Value)
	}
}

// ApplyCombine runs the combiner over a sorted slice of records, returning a
// (usually shorter) sorted slice. It mirrors Hadoop's map-side combine and
// DataMPI's MPI_D_Combine applied to an SPL before transmission.
func ApplyCombine(recs []Record, cmp Compare, combine Combine) []Record {
	if combine == nil || len(recs) == 0 {
		return recs
	}
	g := NewGrouper(NewSliceIterator(recs), cmp)
	var result []Record
	for {
		grp, err := g.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Cannot happen for in-memory iteration; keep input on error.
			return recs
		}
		for _, v := range combine(grp.Key, grp.Values) {
			result = append(result, Record{Key: grp.Key, Value: v})
		}
	}
	return result
}
