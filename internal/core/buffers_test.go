package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"datampi/internal/kv"
)

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

// With a combiner in raw-byte order, preparing a WordCount-shaped 64 KiB
// frame allocates nothing in steady state beyond what the combiner does:
// no record headers, no per-key values slice, no map-key strings. The
// combiner here keeps each key's largest count, a subslice of its input.
func TestPrepareFrameHashCombineAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	var src []byte
	for i := 0; len(src) < 64<<10; i++ {
		w := fmt.Sprintf("w%d", zipf.Uint64())
		src = kv.AppendRecord(src, kv.Record{Key: []byte(w), Value: binary.BigEndian.AppendUint64(nil, uint64(i%7+1))})
	}
	cfg := &Config{Combine: func(_ []byte, vals [][]byte) [][]byte {
		best := 0
		for i, v := range vals {
			if bytes.Compare(v, vals[best]) > 0 {
				best = i
			}
		}
		return vals[best : best+1]
	}}
	var scratch []kv.Record
	prepare := func() {
		out, n, err := prepareFrame(cfg, append(getFrame(), src...), 0, &scratch)
		if err != nil || n == 0 {
			t.Fatalf("prepareFrame: %d records, %v", n, err)
		}
		putFrame(out)
	}
	prepare()
	if allocs := testing.AllocsPerRun(100, prepare); allocs != 0 {
		t.Fatalf("prepareFrame allocated %v times per frame, want 0", allocs)
	}
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
