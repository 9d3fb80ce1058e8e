package core

import (
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
