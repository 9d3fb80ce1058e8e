package main

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a fixed piece of work that touches none of the
// program's code: index-sort TeraGen-like rows with the standard library,
// gather them into a buffer, checksum it, tally the words of a text. It is
// run between the timed operations, and every end-to-end timing that is
// bound by the processor is reported calibrated: scaled by how much slower
// or faster than nominal the yardstick ran right before and right after it.
//
// Why: the benchmark runs on a few cores of a shared host. What the
// neighbours do to the memory system and the sibling hyperthreads moves
// the wall time of a memory-bound job by tens of percent over minutes and
// does not show as steal time. The yardstick is slowed by the same
// neighbours at the same moment, so the calibrated time holds still where
// the raw milliseconds do not (README, "Calibration", has the numbers). A
// change to the program cannot move the yardstick; the raw times and the
// yardstick's own are reported beside the calibrated ones.
//
// The work is cut into chunks that the workers, one per core, take one at
// a time, the way the runtime's tasks share the cores: a core the host
// slows down does less of the pass instead of holding it up.
const (
	yardChunks     = 16
	yardChunkRows  = 12_000 // x 100 B
	yardChunkWords = 30_000
	yardVocab      = 5_000
	// yardNominalMS is one pass on the quiet 2-core reference box. It only
	// fixes the scale of the calibrated numbers (calibrated == raw when the
	// box runs at this speed); no comparison depends on its value.
	yardNominalMS = 40.0
)

type yardstick struct {
	rows    []byte   // yardChunks x yardChunkRows TeraGen-like rows
	words   []uint16 // yardChunks x yardChunkWords word ids, Zipf
	scratch []yardScratch
	sum     uint64    // what the first pass produced; every later one must match
	passMS  []float64 // every pass since construction
	bad     int       // passes that produced something else
}

// yardScratch is one worker's buffers, allocated once: a pass allocates
// nothing, so it starts no garbage collection of its own.
type yardScratch struct {
	idx    []int32
	out    []byte
	counts []uint32
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(1)) // a ruler, not an input: the same for every -seed
	y := &yardstick{
		rows:  make([]byte, yardChunks*yardChunkRows*teraRecordSize),
		words: make([]uint16, yardChunks*yardChunkWords),
	}
	rng.Read(y.rows)
	zipf := rand.NewZipf(rng, 1.3, 1.0, yardVocab-1)
	for i := range y.words {
		y.words[i] = uint16(zipf.Uint64())
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		y.scratch = append(y.scratch, yardScratch{
			idx:    make([]int32, yardChunkRows),
			out:    make([]byte, yardChunkRows*teraRecordSize),
			counts: make([]uint32, yardVocab),
		})
	}
	y.sum = y.once() // also faults the buffers in
	return y
}

// chunk does chunk c's work in s and returns a checksum of the result.
func (y *yardstick) chunk(c int, s *yardScratch) uint64 {
	rows := y.rows[c*yardChunkRows*teraRecordSize:][:yardChunkRows*teraRecordSize]
	for i := range s.idx {
		s.idx[i] = int32(i)
	}
	key := func(i int32) []byte { return rows[int(i)*teraRecordSize:][:teraKeySize] }
	slices.SortFunc(s.idx, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	out := s.out[:0]
	for _, i := range s.idx {
		out = append(out, rows[int(i)*teraRecordSize:][:teraRecordSize]...)
	}
	h := fnv.New64a()
	h.Write(out)
	clear(s.counts)
	for _, w := range y.words[c*yardChunkWords:][:yardChunkWords] {
		s.counts[w]++
	}
	sum := h.Sum64()
	for w, n := range s.counts {
		sum += uint64(w) * uint64(n)
	}
	return sum
}

// once does every chunk once and returns the checksum of the pass.
func (y *yardstick) once() uint64 {
	var next atomic.Int32
	var total atomic.Uint64
	var wg sync.WaitGroup
	for g := range y.scratch {
		wg.Add(1)
		go func(s *yardScratch) {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < yardChunks; c = int(next.Add(1)) - 1 {
				total.Add(y.chunk(c, s))
			}
		}(&y.scratch[g])
	}
	wg.Wait()
	return total.Load()
}

// pace times one pass and returns its index. The heap is collected first,
// outside any timing: neither the pass nor the operation after it then
// pays for the garbage of the operation before.
func (y *yardstick) pace() int {
	runtime.GC()
	start := time.Now()
	sum := y.once()
	if sum != y.sum {
		y.bad++
	}
	y.passMS = append(y.passMS, millis(time.Since(start)))
	return len(y.passMS) - 1
}

// calibrate scales a raw duration measured right after pass i (and right
// before pass i+1) by how the yardstick ran around it: a measurement taken
// while the yardstick needed twice its nominal time counts half. The
// yardstick's time there is the median of the four passes i-1 .. i+2, not
// the mean of the nearest two: now and then the guest kernel leaves both
// workers on one core for a whole pass, which then takes twice as long and
// says nothing about the operation beside it. Call it once the passes
// after the operation have been made; at the edges it uses what there is.
func (y *yardstick) calibrate(raw float64, i int) float64 {
	lo, hi := max(i-1, 0), min(i+3, len(y.passMS))
	return raw * yardNominalMS / median(y.passMS[lo:hi])
}

// account closes the run's books on the yardstick: how fast the box was,
// for the reader, and one more checked operation, which fails if any pass
// produced another result than the first.
func (y *yardstick) account(out *runResult) {
	out.YardMS, out.YardN = median(y.passMS), len(y.passMS)
	out.Attempted++
	if y.bad > 0 {
		out.fail("yardstick: %d of %d passes produced another result than the first", y.bad, len(y.passMS))
	}
}
