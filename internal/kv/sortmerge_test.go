package kv

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests for the sort and merge fast paths: SortRecords against
// slices.SortStableFunc, and the loser-tree Merger against the
// container/heap merge it replaced (kept below as the reference). Both
// must agree record for record — keys AND values, so tie order is pinned,
// not just key order — under a nil (raw-byte, prefix-column) comparator,
// DefaultCompare, and a reversed custom comparator. Merge inputs mix every
// source kind (framed runs, ReaderIterator, SliceIterator); the reference
// reads framed runs through the old per-run cursor below, so a framed
// run's errors must surface exactly as that cursor's did.

// refHeapMerger is the pre-loser-tree Merger, verbatim but for names.
type refHeapMerger struct {
	srcs []Iterator
	h    refMergeHeap
	err  error
}

type refMergeEntry struct {
	rec Record
	src int
}

type refMergeHeap struct {
	entries []refMergeEntry
	cmp     Compare
}

func (h *refMergeHeap) Len() int { return len(h.entries) }

func (h *refMergeHeap) Less(i, j int) bool {
	c := h.cmp(h.entries[i].rec.Key, h.entries[j].rec.Key)
	if c != 0 {
		return c < 0
	}
	return h.entries[i].src < h.entries[j].src
}

func (h *refMergeHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

func (h *refMergeHeap) Push(x any) { h.entries = append(h.entries, x.(refMergeEntry)) }

func (h *refMergeHeap) Pop() any {
	old := h.entries
	e := old[len(old)-1]
	h.entries = old[:len(old)-1]
	return e
}

func newRefHeapMerger(cmp Compare, srcs ...Iterator) (*refHeapMerger, error) {
	m := &refHeapMerger{srcs: srcs}
	m.h.cmp = cmp
	for i, s := range srcs {
		rec, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.h.entries = append(m.h.entries, refMergeEntry{rec: rec, src: i})
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *refHeapMerger) Next() (Record, error) {
	if m.err != nil {
		return Record{}, m.err
	}
	if m.h.Len() == 0 {
		return Record{}, io.EOF
	}
	top := m.h.entries[0]
	next, err := m.srcs[top.src].Next()
	if err == io.EOF {
		heap.Pop(&m.h)
	} else if err != nil {
		m.err = err
		return Record{}, err
	} else {
		m.h.entries[0] = refMergeEntry{rec: next, src: top.src}
		heap.Fix(&m.h, 0)
	}
	return top.rec, nil
}

func reverseCompare(a, b []byte) int { return bytes.Compare(b, a) }

// comparators are the orders every differential case runs under. The
// reference side gets DefaultCompare where the fast path gets nil.
var comparators = []struct {
	name     string
	cmp, ref Compare
}{
	{"nil", nil, DefaultCompare},
	{"default", DefaultCompare, DefaultCompare},
	{"reverse", reverseCompare, reverseCompare},
}

// failingIterator yields recs, then fails instead of reporting io.EOF.
type failingIterator struct {
	recs []Record
	i    int
}

var errSource = errors.New("source failed")

func (f *failingIterator) Next() (Record, error) {
	if f.i >= len(f.recs) {
		return Record{}, errSource
	}
	f.i++
	return f.recs[f.i-1], nil
}

// refRunIterator is the per-run cursor the A side merged framed runs
// through before FramedRun replaced it, verbatim but for its name.
type refRunIterator struct {
	rest []byte
}

func (r *refRunIterator) Next() (Record, error) {
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

// The kinds of merge input.
const (
	srcFramed    = iota // a framed run buffer: NewFramedRun
	srcSlice            // NewSliceIterator
	srcReader           // a framed stream: ReaderIterator
	srcFailing          // yields its records, then errSource
	srcTruncated        // a framed run ending in a cut-short record
)

// mixedSources deals the three healthy kinds out round-robin.
func mixedSources(i int) int { return i % 3 }

// mergeSource returns run as a merge input of the given kind. The
// reference (ref) reads framed kinds through refRunIterator.
func mergeSource(kind int, run []Record, ref bool) Iterator {
	var b []byte
	for _, r := range run {
		b = AppendRecord(b, r)
	}
	switch kind {
	case srcSlice:
		return NewSliceIterator(run)
	case srcReader:
		return ReaderIterator{R: NewReader(bytes.NewReader(b))}
	case srcFailing:
		return &failingIterator{recs: run}
	case srcTruncated:
		b = append(b, 5, 'a') // a 5-byte key with 1 byte left
	}
	if ref {
		return &refRunIterator{rest: b}
	}
	return NewFramedRun(b)
}

// drainAll collects records up to EOF or the first error (whose text is
// returned, "" at EOF), plus one more Next to pin the sticky error.
func drainAll(it Iterator) ([]Record, string) {
	var out []Record
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return out, ""
		}
		if err != nil {
			_, again := it.Next()
			return out, fmt.Sprintf("%v / %v", err, again)
		}
		out = append(out, rec)
	}
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: record %d = (%q,%q), reference (%q,%q)",
				what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// checkSort compares SortRecords with a stable reference sort on a copy.
func checkSort(t *testing.T, what string, recs []Record, cmp, ref Compare) {
	t.Helper()
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b Record) int { return ref(a.Key, b.Key) })
	got := slices.Clone(recs)
	SortRecords(got, cmp)
	sameRecords(t, what+"/sort", got, want)
}

// checkMerge sorts each run under ref, then merges the runs with the
// loser tree (under cmp) and with the heap reference (under ref), run i
// taking source kind kind(i).
func checkMerge(t *testing.T, what string, runs [][]Record, cmp, ref Compare, kind func(int) int) {
	t.Helper()
	its := func(ref bool) []Iterator {
		out := make([]Iterator, len(runs))
		for i, r := range runs {
			out[i] = mergeSource(kind(i), r, ref)
		}
		return out
	}
	for _, r := range runs {
		slices.SortStableFunc(r, func(a, b Record) int { return ref(a.Key, b.Key) })
	}
	m, gotInitErr := NewMerger(cmp, its(false)...)
	rm, wantInitErr := newRefHeapMerger(ref, its(true)...)
	if fmt.Sprint(gotInitErr) != fmt.Sprint(wantInitErr) {
		t.Fatalf("%s: NewMerger error %v, reference %v", what, gotInitErr, wantInitErr)
	}
	if gotInitErr != nil {
		return
	}
	got, gotErr := drainAll(m)
	want, wantErr := drainAll(rm)
	sameRecords(t, what+"/merge", got, want)
	if gotErr != wantErr {
		t.Fatalf("%s: merge ended with %q, reference %q", what, gotErr, wantErr)
	}
}

// failing makes run at fail with kind bad, and deals the rest as
// mixedSources.
func failing(at, bad int) func(int) int {
	return func(i int) int {
		if i == at {
			return bad
		}
		return mixedSources(i)
	}
}

// genRuns deals n records with keys drawn by key into k runs at random;
// values are a global sequence number, so any tie-order drift shows.
func genRuns(rng *rand.Rand, k, n int, key func(*rand.Rand) []byte) [][]Record {
	runs := make([][]Record, k)
	for i := 0; i < n && k > 0; i++ {
		r := rng.Intn(k)
		runs[r] = append(runs[r], Record{Key: key(rng), Value: []byte(fmt.Sprint(i))})
	}
	return runs
}

// keyShapes are the key distributions the fast path must not get wrong.
var keyShapes = []struct {
	name string
	key  func(*rand.Rand) []byte
}{
	{"terasort", func(rng *rand.Rand) []byte {
		k := make([]byte, 10)
		for i := range k {
			k[i] = byte(' ' + rng.Intn(95))
		}
		return k
	}},
	{"duplicates", func(rng *rand.Rand) []byte { return []byte(fmt.Sprintf("dup-%d", rng.Intn(4))) }},
	{"empty-and-short", func(rng *rand.Rand) []byte { return bytes.Repeat([]byte{'a'}, rng.Intn(3)) }},
	// Byte-prefixes of each other, including zero tails that pad to the
	// same 8-byte prefix: "ab" vs "ab\x00" vs "ab\x00\x00".
	{"zero-padded-prefixes", func(rng *rand.Rand) []byte {
		return append([]byte("ab"), make([]byte, rng.Intn(4))...)
	}},
	{"same-8-byte-prefix", func(rng *rand.Rand) []byte {
		return []byte(fmt.Sprintf("prefix00%c%c", 'a'+rng.Intn(3), 'a'+rng.Intn(3)))
	}},
	{"mixed-prefix-lengths", func(rng *rand.Rand) []byte {
		k := []byte("key-0000")
		return k[:rng.Intn(len(k)+1)]
	}},
	// Eight 0xFF bytes make the prefix MaxUint64, the exhausted-run
	// sentinel's; shorter all-0xFF keys fall just below it.
	{"ff-prefix", func(rng *rand.Rand) []byte {
		k := bytes.Repeat([]byte{0xFF}, 7+rng.Intn(2))
		return append(k, []byte{0x00, 0xFF, 'a'}[:rng.Intn(3)]...)
	}},
	// One key holds nearly every record; the rest share its 8-byte
	// prefix, so the group's prefix run is not all one key.
	{"huge-duplicate-group", func(rng *rand.Rand) []byte {
		if rng.Intn(20) == 0 {
			return []byte(fmt.Sprintf("same-key%c", 'a'+rng.Intn(3)))
		}
		return []byte("same-key")
	}},
	{"one-key", func(*rand.Rand) []byte { return []byte("one-key") }},
}

func TestSortRecordsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range keyShapes {
		// 63/64/65 straddle the radix sort's cut-over; 2621 is one 256 KiB
		// SPL batch of TeraSort records.
		for _, n := range []int{0, 1, 2, 3, 17, 63, 64, 65, 500, 2621} {
			recs := genRuns(rng, 1, n, shape.key)[0]
			for _, c := range comparators {
				checkSort(t, fmt.Sprintf("%s/n=%d/%s", shape.name, n, c.name), recs, c.cmp, c.ref)
			}
		}
	}
}

func TestMergerMatchesHeapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range keyShapes {
		for _, k := range []int{0, 1, 2, 3, 5, 57, 190} {
			for _, c := range comparators {
				what := fmt.Sprintf("%s/k=%d/%s", shape.name, k, c.name)
				// n < k leaves some runs empty; n > k gives long runs.
				for _, n := range []int{k / 2, 4 * k, 40} {
					checkMerge(t, what, genRuns(rng, k, n, shape.key), c.cmp, c.ref, mixedSources)
				}
			}
		}
	}
}

func TestMergerAllRunsEmpty(t *testing.T) {
	for _, c := range comparators {
		checkMerge(t, c.name, make([][]Record, 5), c.cmp, c.ref, mixedSources)
	}
}

// A run that errors mid-stream, or a framed run that ends in a truncated
// record, must surface the error at the same record as the heap merge over
// the old run cursor did, and keep returning it.
func TestMergerSourceErrorMatchesHeapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range comparators {
		for _, bad := range []int{srcFailing, srcTruncated} {
			for _, k := range []int{1, 2, 3, 5, 190} {
				for _, at := range []int{0, k / 2, k - 1} {
					runs := genRuns(rng, k, 6*k, keyShapes[1].key)
					checkMerge(t, fmt.Sprintf("%s/k=%d/bad=%d@%d", c.name, k, bad, at), runs, c.cmp, c.ref, failing(at, bad))
				}
			}
			// A run that fails on its very first record fails NewMerger.
			checkMerge(t, fmt.Sprintf("%s/bad=%d/at-init", c.name, bad), [][]Record{{{Key: []byte("a")}}, nil}, c.cmp, c.ref, failing(1, bad))
		}
	}
}

// FuzzSortMerge drives both differential checks from arbitrary bytes:
// data is carved into keys (a length byte, then that many key bytes, up to
// 12 so 8-byte prefix ties are common), dealt across k runs by the byte
// after each key. SortFramed sorts the framed keys, and must also fail on
// data itself, read as a frame, exactly when DecodeAll does.
func FuzzSortMerge(f *testing.F) {
	f.Add([]byte{2, 'a', 'b', 0, 3, 'a', 'b', 0, 1, 0, 0, 2}, uint8(3))
	f.Add([]byte("\x08prefix00\x00\x09prefix00a\x01\x08prefix00\x02"), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("\x08\xff\xff\xff\xff\xff\xff\xff\xff\x00\x09\xff\xff\xff\xff\xff\xff\xff\xff\x00\x01\x07\xff\xff\xff\xff\xff\xff\xff\x02"), uint8(2))
	// 63, 64, 65 and 2621 keys (the radix sort's cut-over and one SPL
	// batch), and one key nearly everywhere (a huge duplicate group).
	for _, n := range []int{63, 64, 65, 2621} {
		var data []byte
		for i := 0; i < n; i++ {
			key := []byte("dup-key")
			if i%50 == 0 {
				key = fmt.Appendf(nil, "key%05d", i*7919%n)
			}
			data = append(append(append(data, byte(len(key))), key...), byte(i))
		}
		f.Add(data, uint8(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		var s FrameSorter
		checkSortFramedErr(t, "raw-bytes", &s, data)
		nruns := int(k%8) + 1
		runs := make([][]Record, nruns)
		var all []Record
		for seq := 0; len(data) > 0; seq++ {
			n := min(int(data[0]%13), len(data)-1)
			key := data[1 : 1+n]
			data = data[1+n:]
			r := 0
			if len(data) > 0 {
				r = int(data[0]) % nruns
				data = data[1:]
			}
			rec := Record{Key: key, Value: []byte(fmt.Sprint(seq))}
			runs[r] = append(runs[r], rec)
			all = append(all, rec)
		}
		for _, c := range comparators {
			checkSort(t, c.name, all, c.cmp, c.ref)
			cp := make([][]Record, len(runs))
			for i := range runs {
				cp[i] = slices.Clone(runs[i])
			}
			checkMerge(t, c.name, cp, c.cmp, c.ref, mixedSources)
		}
		checkSortFramed(t, "framed", &s, all)
	})
}

// checkSortFramed frames recs and sorts the frame with SortFramed, through
// s, after a prefix already in dst: the result must be the prefix, then
// exactly the bytes of SortRecords(recs, nil) re-encoded by AppendRecord.
func checkSortFramed(t *testing.T, what string, s *FrameSorter, recs []Record) {
	t.Helper()
	var src []byte
	for _, r := range recs {
		src = AppendRecord(src, r)
	}
	sorted := slices.Clone(recs)
	SortRecords(sorted, nil)
	var want []byte
	for _, r := range sorted {
		want = AppendRecord(want, r)
	}
	prefix := []byte("dst")
	got, n, err := s.SortFramed(slices.Clone(prefix), src)
	if err != nil || n != len(recs) {
		t.Fatalf("%s: SortFramed = %d records, %v; want %d", what, n, err, len(recs))
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: SortFramed bytes differ from SortRecords + AppendRecord", what)
	}
	if fresh, _, _ := SortFramed(nil, src); !bytes.Equal(fresh, want) {
		t.Fatalf("%s: SortFramed on a fresh sorter differs from SortRecords + AppendRecord", what)
	}
}

// checkSortFramedErr: on any bytes, SortFramed fails exactly when
// DecodeAll does, with the same error, and then leaves dst as it was.
func checkSortFramedErr(t *testing.T, what string, s *FrameSorter, data []byte) {
	t.Helper()
	_, wantErr := DecodeAll(data)
	got, _, err := s.SortFramed([]byte("dst"), data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: SortFramed error %v, DecodeAll error %v", what, err, wantErr)
	}
	if err != nil && string(got) != "dst" {
		t.Fatalf("%s: a failed SortFramed returned dst %q", what, got)
	}
}

// TestSortFramedMatchesSortRecords sorts every key shape at the radix
// sort's cut-over and at one SPL batch of TeraSort records, through one
// reused FrameSorter. Every third value is 128 bytes or more, so its
// length varint takes two bytes.
func TestSortFramedMatchesSortRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s FrameSorter
	for _, shape := range keyShapes {
		for _, n := range []int{0, 1, 63, 64, 65, 2621} {
			recs := genRuns(rng, 1, n, shape.key)[0]
			for i := range recs {
				if i%3 == 0 {
					recs[i].Value = append(recs[i].Value, make([]byte, 128+rng.Intn(200))...)
				}
			}
			checkSortFramed(t, fmt.Sprintf("%s/n=%d", shape.name, n), &s, recs)
		}
	}
	// Keys of 128 bytes or more take two-byte varints too.
	long := bytes.Repeat([]byte{'k'}, 200)
	checkSortFramed(t, "long-keys", &s, []Record{{Key: long[:150], Value: []byte("1")}, {Key: long[:130]}, {Key: long}})
}

// A frame truncated at every byte, or carrying a length varint that
// overflows, fails SortFramed exactly as it fails DecodeAll.
func TestSortFramedErrorsLikeDecodeAll(t *testing.T) {
	var frame []byte
	for _, r := range []Record{
		{Key: []byte("k1"), Value: []byte("v1")},
		{},
		{Key: bytes.Repeat([]byte{'x'}, 130), Value: bytes.Repeat([]byte{'y'}, 200)},
		{Key: []byte("k2"), Value: []byte("v2")},
	} {
		frame = AppendRecord(frame, r)
	}
	var s FrameSorter
	for i := 0; i <= len(frame); i++ {
		checkSortFramedErr(t, fmt.Sprintf("cut@%d", i), &s, frame[:i])
	}
	overflow := bytes.Repeat([]byte{0xFF}, 10)
	checkSortFramedErr(t, "key-varint-overflow", &s, overflow)
	checkSortFramedErr(t, "value-varint-overflow", &s, append([]byte{1, 'k'}, overflow...))
	// A failed sort leaves the sorter fit for the next frame.
	checkSortFramed(t, "after-errors", &s, []Record{{Key: []byte("b")}, {Key: []byte("a")}})
}
