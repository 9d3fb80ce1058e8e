package kv

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// CombineTable is a send buffer that groups records as they arrive: an
// open-addressing hash table keyed by exact key bytes, each distinct key
// stored once and every value kept, chained to its key in Add order.
// AppendCombined then sorts only the distinct keys and runs the combiner
// once per key, so a combining sender never encodes, parses or sorts a
// record per emission.
//
// Equal bytes are equal keys only in raw-byte order, so a custom Compare
// cannot use a table. Its slots, groups and chains are offsets, not
// pointers, so the collector does not scan them. The zero value is an
// empty table.
type CombineTable struct {
	slots  []int32 // group index + 1, 0 = empty
	groups []combineGroup
	links  []valueLink
	keys   []byte // each distinct key's bytes, once
	vals   []byte // every value's bytes, in Add order
	size   int

	rows, rowsBuf []prefixIdx // the distinct keys, sorted by sortRows
	vbuf          [][]byte    // the one values slice every combine call sees
}

// combineGroup is one distinct key: its bytes in keys, and the first and
// last links of its value chain.
type combineGroup struct {
	hash           uint64
	keyOff, keyEnd int
	head, tail     int32
}

// valueLink is one Add's value, which ends at end in vals and starts where
// the previous Add's value ended.
type valueLink struct {
	end  int
	next int32 // the key's next value; -1 ends the chain
}

var combineSeed = maphash.MakeSeed()

// Add appends one record. It copies key (once per distinct key) and value,
// so the caller may reuse both as soon as Add returns.
func (t *CombineTable) Add(key, value []byte) {
	t.size += Record{Key: key, Value: value}.Size()
	t.vals = append(t.vals, value...)
	li := int32(len(t.links))
	t.links = append(t.links, valueLink{end: len(t.vals), next: -1})
	if len(t.slots) == 0 {
		t.slots = make([]int32, 64)
	}
	h := maphash.Bytes(combineSeed, key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		g := &t.groups[t.slots[i]-1]
		if g.hash == h && bytes.Equal(t.keys[g.keyOff:g.keyEnd], key) {
			t.links[g.tail].next = li
			g.tail = li
			return
		}
	}
	off := len(t.keys)
	t.keys = append(t.keys, key...)
	t.groups = append(t.groups, combineGroup{hash: h, keyOff: off, keyEnd: len(t.keys), head: li, tail: li})
	t.slots[i] = int32(len(t.groups))
	if 2*len(t.groups) > len(t.slots) {
		t.growSlots()
	}
}

// growSlots doubles the table and reinserts every group by its stored hash.
func (t *CombineTable) growSlots() {
	n := 2 * len(t.slots)
	t.slots = slices.Grow(t.slots[:0], n)[:n]
	clear(t.slots)
	mask := uint64(n - 1)
	for gi := range t.groups {
		i := t.groups[gi].hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(gi + 1)
	}
}

// Size is the number of bytes the added records take framed: the sum of
// their Record.Size.
func (t *CombineTable) Size() int { return t.size }

// Len is the number of records added.
func (t *CombineTable) Len() int { return len(t.links) }

// key returns group gi's key, capped so a combiner appending to it cannot
// overwrite the next key.
func (t *CombineTable) key(gi int32) []byte {
	g := &t.groups[gi]
	return t.keys[g.keyOff:g.keyEnd:g.keyEnd]
}

// AppendCombined appends the combined records, framed, to dst and returns
// it and the number of records appended. The bytes are exactly those of
// sorting the added records stably in raw-byte key order, ApplyCombine
// under DefaultCompare and AppendRecord: combine runs once per distinct
// key, in key order, over the key's values in Add order.
//
// combine sees one reused values slice, and its result is encoded before
// the next call, so it must keep neither across calls. The table is left
// as it was; Reset empties it.
func (t *CombineTable) AppendCombined(dst []byte, combine Combine) ([]byte, int64) {
	ng := len(t.groups)
	rows := slices.Grow(t.rows[:0], ng)[:ng]
	t.rows, t.rowsBuf = rows, slices.Grow(t.rowsBuf[:0], ng)[:ng]
	for i := range t.groups {
		rows[i] = prefixIdx{pfx: keyPrefix(t.key(int32(i))), idx: int32(i)}
	}
	rows = sortRows(rows, t.rowsBuf, t.key)

	var out int64
	for _, r := range rows {
		g := &t.groups[r.idx]
		vals := t.vbuf[:0]
		for l := g.head; l >= 0; l = t.links[l].next {
			start := 0
			if l > 0 {
				start = t.links[l-1].end
			}
			end := t.links[l].end
			vals = append(vals, t.vals[start:end:end])
		}
		t.vbuf = vals
		key := t.key(r.idx)
		for _, v := range combine(key, vals) {
			dst = AppendRecord(dst, Record{Key: key, Value: v})
			out++
		}
	}
	return dst, out
}

// Reset empties the table, keeping its memory for reuse.
func (t *CombineTable) Reset() {
	clear(t.slots)
	t.groups, t.links = t.groups[:0], t.links[:0]
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	t.size = 0
}
