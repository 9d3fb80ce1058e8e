package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"datampi/internal/kv"
)

// allocsPerRunNoGC is testing.AllocsPerRun with the collector held off:
// a GC mid-measurement empties the sync.Pools the measured code draws
// from, and refilling them counts as allocations steady state never makes.
func allocsPerRunNoGC(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// A size-sealed SPL buffer keeps its pooled frame while the records fit,
// then grows once, straight to maxSize + splSlack, and is never regrown
// before it seals.
func TestSPLGrowsOnceWhenFull(t *testing.T) {
	const maxSize = 64 << 10
	s := newSPL(1, maxSize)
	s.parts[0].data = make([]byte, frameHeaderLen, 4<<10) // a fresh pooled frame
	rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 88)}

	caps := []int{cap(s.parts[0].data)}
	for {
		b := s.parts[0].data
		fits := len(b)+rec.Size() <= cap(b)
		sealed := s.add(0, rec)
		data := s.parts[0].data
		if sealed != nil {
			data = sealed.data
		}
		if c := cap(data); c != caps[len(caps)-1] {
			if fits {
				t.Fatalf("regrew at %d bytes, while the record still fit", len(b))
			}
			caps = append(caps, c)
		}
		if sealed != nil {
			break
		}
	}
	if len(caps) != 2 || caps[1] < frameHeaderLen+maxSize+splSlack {
		t.Errorf("capacities %v: want 4 KiB, then one step to >= %d", caps, frameHeaderLen+maxSize+splSlack)
	}
}

// wordCountRecords are WordCount-shaped records (Zipf words, 8-byte
// counts) of at least size framed bytes.
func wordCountRecords(size int) []kv.Record {
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	var recs []kv.Record
	for i, n := 0, 0; n < size; i++ {
		r := kv.Record{Key: []byte(fmt.Sprintf("w%d", zipf.Uint64())), Value: binary.BigEndian.AppendUint64(nil, uint64(i%7+1))}
		recs, n = append(recs, r), n+r.Size()
	}
	return recs
}

// maxCount is a combiner that keeps each key's largest count, a subslice
// of its input, so it allocates nothing itself.
func maxCount(_ []byte, vals [][]byte) [][]byte {
	best := 0
	for i, v := range vals {
		if bytes.Compare(v, vals[best]) > 0 {
			best = i
		}
	}
	return vals[best : best+1]
}

// emptyTableFree drops the tables earlier tests left on the free list,
// which hands tables out oldest first: after it, a table put is the next
// one got.
func emptyTableFree() {
	for len(tableFree) > 0 {
		<-tableFree
	}
}

// With a combiner in raw-byte order, filling a default-size SPL table and
// preparing it allocates nothing in steady state beyond what the combiner
// does: no record headers, no per-key values slice, no map-key strings.
func TestPrepareFrameHashCombineAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	recs := wordCountRecords(defaultSPLBytes)
	emptyTableFree()
	cfg := &Config{Combine: maxCount}
	s := newSPL(1, defaultSPLBytes)
	s.tables = true
	var scratch prepScratch
	seal := func() {
		for _, r := range recs {
			sealed := s.add(0, r)
			if sealed == nil {
				continue
			}
			item := *sealed
			if err := prepareFrame(cfg, &item, &scratch); err != nil || item.records == 0 || item.table != nil {
				t.Fatalf("prepareFrame: %d records, table %p, %v", item.records, item.table, err)
			}
			putFrame(item.data)
			return
		}
		t.Fatal("a default SPL's worth of records did not seal the table")
	}
	seal()
	if allocs := allocsPerRunNoGC(100, seal); allocs != 0 {
		t.Fatalf("filling and preparing a table allocated %v times per seal, want 0", allocs)
	}
}

// A sealed table is recycled whole across collections: a table regrown
// from empty would allocate its arenas, chains and slots again at every
// seal. A sync.Pool fails this, since two GCs empty it. (Counting
// allocations across runtime.GC would not do: the runtime's own cleanup
// after a collection allocates.)
func TestCombineTableSurvivesGC(t *testing.T) {
	emptyTableFree()
	tb := getTable()
	for _, r := range wordCountRecords(defaultSPLBytes) {
		tb.Add(r.Key, r.Value)
	}
	tb.AppendCombined(nil, maxCount)
	putTable(tb)
	runtime.GC()
	runtime.GC()
	got := getTable()
	defer putTable(got)
	if got != tb {
		t.Fatal("the table put before two GCs was not the one got after them")
	}
	if got.Len() != 0 || got.Size() != 0 {
		t.Fatalf("recycled table holds %d records of %d bytes, want none", got.Len(), got.Size())
	}
}

// teraFrame is a framed buffer of TeraSort-shaped records (random
// printable 10-byte keys, 90-byte values) of at least size record bytes.
func teraFrame(size int) []byte {
	rng := rand.New(rand.NewSource(7))
	frame := make([]byte, frameHeaderLen)
	rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 90)}
	for len(frame)-frameHeaderLen < size {
		for j := range rec.Key {
			rec.Key[j] = byte(' ' + rng.Intn(95))
		}
		frame = kv.AppendRecord(frame, rec)
	}
	return frame
}

// Sorting a full default-size TeraSort frame into a 4 KiB pooled frame
// allocates once: the output is reserved at the input's length, not grown
// through append's doublings. That holds on the framed path (no Compare:
// kv.SortFramed, its rows kept in the worker's scratch) and on the decode
// path a custom Compare takes.
func TestPrepareFrameSortedAllocsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const runs = 20
	src := teraFrame(defaultSPLBytes)
	for _, tc := range []struct {
		name string
		cmp  kv.Compare
	}{{"framed", nil}, {"compare", kv.DefaultCompare}} {
		t.Run(tc.name, func(t *testing.T) {
			// The input is built past maxPooledFrame so prepareFrame's
			// recycle drops it, and the output is never recycled: every run
			// starts from a fresh 4 KiB frame put into the pool, like a
			// first use of the pool. Each small frame is put once, so no
			// two gets ever share one.
			in := append(make([]byte, 0, maxPooledFrame+1), src...)
			smalls := make([][]byte, runs+2)
			for i := range smalls {
				smalls[i] = make([]byte, frameHeaderLen, 4<<10)
			}
			cfg := &Config{Compare: tc.cmp}
			cfg.Normalize(MapReduce)
			var scratch prepScratch
			prepare := func() {
				putFrame(smalls[0])
				smalls = smalls[1:]
				item := sendItem{data: in}
				err := prepareFrame(cfg, &item, &scratch)
				if err != nil || item.records == 0 || len(item.data) != len(src) {
					t.Fatalf("prepareFrame: %d records, %d of %d bytes, %v", item.records, len(item.data), len(src), err)
				}
			}
			prepare()
			if allocs := allocsPerRunNoGC(runs, prepare); allocs > 1 {
				t.Fatalf("prepareFrame allocated %v times per frame, want at most 1", allocs)
			}
		})
	}
}

// A default-size SPL buffer must stay poolable: frameHeaderLen +
// SPLBytes + splSlack within maxPooledFrame, and a buffer sealed at that
// size comes back out of the frame pool.
func TestDefaultSPLFrameIsPooled(t *testing.T) {
	var cfg Config
	cfg.Normalize(MapReduce)
	if cfg.SPLBytes != defaultSPLBytes {
		t.Fatalf("SPLBytes default = %d, want %d", cfg.SPLBytes, defaultSPLBytes)
	}
	if n := frameHeaderLen + cfg.SPLBytes + splSlack; n > maxPooledFrame {
		t.Fatalf("a default SPL buffer needs %d bytes, over maxPooledFrame %d", n, maxPooledFrame)
	}
	rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 90)}
	// sync.Pool may hand a frame to another P or drop it (at random under
	// -race), so try a few freshly sealed buffers, each put exactly once.
	for i := 0; i < 10; i++ {
		s := newSPL(1, cfg.SPLBytes)
		var sealed *sendItem
		for sealed == nil {
			sealed = s.add(0, rec)
		}
		if c := cap(sealed.data); c > maxPooledFrame {
			t.Fatalf("sealed default-size buffer has cap %d, over maxPooledFrame %d", c, maxPooledFrame)
		}
		putFrame(sealed.data)
		if f := getFrame(); &f[0] == &sealed.data[0] {
			return
		}
	}
	t.Fatal("a buffer sealed at the default SPLBytes never came back from the frame pool")
}

// A record-capped (streaming) buffer is never presized.
func TestSPLRecordCappedStaysSmall(t *testing.T) {
	s := newSPL(1, 64<<10)
	s.maxRecords = 100
	s.parts[0].data = make([]byte, frameHeaderLen, 4<<10)
	rec := kv.Record{Key: make([]byte, 10), Value: make([]byte, 88)}
	for s.add(0, rec) == nil {
		if c := cap(s.parts[0].data); c >= 64<<10 {
			t.Fatalf("record-capped buffer grew to %d", c)
		}
	}
}
