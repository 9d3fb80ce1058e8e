package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
)

// Input generators. Every input is a pure function of the seed, so two
// runs with the same -seed feed the program byte-identical data. They are
// copies of internal/bench's generators on purpose: an edit there must not
// move this benchmark's baseline.

const (
	teraRecordSize = 100 // TeraGen row: 10-byte key + 90-byte payload
	teraKeySize    = 10
)

// recordSum is an order-independent checksum of a multiset of records: the
// wrapping sum of each record's FNV-1a hash. Input and sorted output of
// TeraSort hold the same multiset, so their sums must be equal.
type recordSum struct {
	n   int64
	sum uint64
}

func (s *recordSum) add(rec []byte) {
	h := fnv.New64a()
	h.Write(rec)
	s.n++
	s.sum += h.Sum64()
}

// teraGen writes `records` TeraGen rows to w and returns their checksum.
// Keys are uniform printable bytes, which is what teraPartition's linear
// range split relies on.
func teraGen(w io.Writer, records int, seed int64) (recordSum, error) {
	rng := rand.New(rand.NewSource(seed))
	var sum recordSum
	rec := make([]byte, teraRecordSize)
	for i := 0; i < records; i++ {
		for j := 0; j < teraKeySize; j++ {
			rec[j] = byte(' ' + rng.Intn(95))
		}
		copy(rec[teraKeySize:], fmt.Sprintf("%010d", i))
		for j := teraKeySize + 10; j < teraRecordSize; j++ {
			rec[j] = byte('A' + (i+j)%26)
		}
		sum.add(rec)
		if _, err := w.Write(rec); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// textGen writes `lines` lines of `wordsPerLine` Zipf-distributed words to
// w and returns the reference word counts, tallied while generating by
// this one goroutine — the WordCount oracle.
func textGen(w io.Writer, lines, wordsPerLine, vocab int, seed int64) (map[string]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(vocab-1))
	words := make([][]byte, vocab)
	counts := make([]uint64, vocab)
	for i := range words {
		words[i] = []byte(fmt.Sprintf("word%05d", i))
	}
	line := make([]byte, 0, wordsPerLine*10)
	for i := 0; i < lines; i++ {
		line = line[:0]
		for j := 0; j < wordsPerLine; j++ {
			if j > 0 {
				line = append(line, ' ')
			}
			k := zipf.Uint64()
			counts[k]++
			line = append(line, words[k]...)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return nil, err
		}
	}
	ref := make(map[string]uint64, vocab)
	for k, c := range counts {
		if c > 0 {
			ref[string(words[k])] = c
		}
	}
	return ref, nil
}

// streamKeys is the size of stream_agg's key space: small and hot, so
// every window aggregates for real.
const streamKeys = 64

// streamKeyOf returns the key index of a source's i-th event: a splitmix64
// hash of (seed, source, i), so the key sequence is seed-dependent yet
// needs no shared generator state between the source goroutines.
func streamKeyOf(seed int64, source, i int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(source)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % streamKeys)
}

// checksumWriter hashes everything written through it (the generator
// determinism test compares two seeds' sums).
type checksumWriter struct{ h uint64 }

func (c *checksumWriter) Write(p []byte) (int, error) {
	h := fnv.New64a()
	h.Write(p)
	c.h = c.h*1099511628211 + h.Sum64()
	return len(p), nil
}
