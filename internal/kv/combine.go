package kv

import (
	"bytes"
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// combineGroup is one distinct key of a HashCombine call: where its bytes
// sit in the input, and the first and last records of its value chain.
type combineGroup struct {
	hash           uint64
	keyOff, keyLen int32
	head, tail     int32 // indices into combineScratch.links
}

func (g *combineGroup) key(src []byte) []byte { return src[g.keyOff : g.keyOff+g.keyLen] }

// valueLink is one record's value, chained to the next record of its key.
type valueLink struct {
	off, len int32
	next     int32 // -1 ends the chain
}

// combineScratch is HashCombine's reusable working memory. All but vals is
// offsets into the input, so pooling it pins no frame.
type combineScratch struct {
	slots   []int32 // open-addressing table: group index + 1, 0 = empty
	groups  []combineGroup
	links   []valueLink
	rows    []prefixIdx // the distinct keys, sorted by sortRows
	rowsBuf []prefixIdx
	vals    [][]byte // the one values slice every Combine call sees
}

var (
	combineScratchPool sync.Pool
	combineSeed        = maphash.MakeSeed()
)

// HashCombine combines the framed records in src and appends the result,
// framed, to dst, returning it and the number of records appended. The
// bytes are exactly those of DecodeAll, SortRecords in raw-byte order,
// ApplyCombine under DefaultCompare and AppendRecord, but the records are
// never sorted: they are grouped by exact key bytes in a hash table, each
// key's values kept in emission order, and only the distinct keys are
// sorted before combine runs once per key, in key order. Equal bytes are
// equal keys only in raw-byte order, so a custom Compare cannot use this.
//
// combine sees one reused values slice, and its result is encoded before
// the next call, so it must keep neither across calls.
func HashCombine(dst, src []byte, combine Combine) ([]byte, int64, error) {
	if len(src) > math.MaxInt32 {
		recs, err := DecodeAll(src)
		if err != nil {
			return dst, 0, err
		}
		SortRecords(recs, nil)
		recs = ApplyCombine(recs, DefaultCompare, combine)
		for _, r := range recs {
			dst = AppendRecord(dst, r)
		}
		return dst, int64(len(recs)), nil
	}
	s, _ := combineScratchPool.Get().(*combineScratch)
	if s == nil {
		s = &combineScratch{}
	}
	defer combineScratchPool.Put(s)
	s.groups, s.links = s.groups[:0], s.links[:0]
	s.slots = slices.Grow(s.slots[:0], 64)[:64]
	clear(s.slots)

	for b := src; len(b) > 0; {
		rec, n, err := ReadRecord(b)
		if err != nil {
			return dst, 0, err
		}
		b = b[n:]
		// The record's slices alias src: the capacity src has past a slice
		// is its offset.
		s.links = append(s.links, valueLink{off: int32(cap(src) - cap(rec.Value)), len: int32(len(rec.Value)), next: -1})
		s.add(src, rec.Key, int32(cap(src)-cap(rec.Key)))
	}

	ng := len(s.groups)
	rows := slices.Grow(s.rows[:0], ng)[:ng]
	s.rows, s.rowsBuf = rows, slices.Grow(s.rowsBuf[:0], ng)[:ng]
	for i := range s.groups {
		rows[i] = prefixIdx{pfx: keyPrefix(s.groups[i].key(src)), idx: int32(i)}
	}
	rows = sortRows(rows, s.rowsBuf, func(i int32) []byte { return s.groups[i].key(src) })

	var out int64
	maxVals := 0
	for _, r := range rows {
		g := &s.groups[r.idx]
		vals := s.vals[:0]
		for l := g.head; l >= 0; l = s.links[l].next {
			v := s.links[l]
			vals = append(vals, src[v.off:v.off+v.len])
		}
		s.vals, maxVals = vals, max(maxVals, len(vals))
		key := g.key(src)
		for _, v := range combine(key, vals) {
			dst = AppendRecord(dst, Record{Key: key, Value: v})
			out++
		}
	}
	// Drop the values' pointers into src before pooling.
	clear(s.vals[:maxVals])
	return dst, out, nil
}

// add chains the last link onto its key's group, opening a group if the
// key (at keyOff in src) is new.
func (s *combineScratch) add(src, key []byte, keyOff int32) {
	li := int32(len(s.links) - 1)
	h := maphash.Bytes(combineSeed, key)
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		g := &s.groups[s.slots[i]-1]
		if g.hash == h && bytes.Equal(g.key(src), key) {
			s.links[g.tail].next = li
			g.tail = li
			return
		}
	}
	s.groups = append(s.groups, combineGroup{hash: h, keyOff: keyOff, keyLen: int32(len(key)), head: li, tail: li})
	s.slots[i] = int32(len(s.groups))
	if 2*len(s.groups) > len(s.slots) {
		s.growSlots()
	}
}

// growSlots doubles the table and reinserts every group by its stored hash.
func (s *combineScratch) growSlots() {
	n := 2 * len(s.slots)
	s.slots = slices.Grow(s.slots[:0], n)[:n]
	clear(s.slots)
	mask := uint64(n - 1)
	for gi := range s.groups {
		i := s.groups[gi].hash & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(gi + 1)
	}
}
