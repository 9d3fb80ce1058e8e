package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"datampi/internal/hdfs"
	"datampi/internal/kv"
)

// Correctness oracles. A mismatch is reported as an error and counted as
// a failed operation by the caller; it never panics.

// partDigest is the SHA-256 of each part file in part order. TeraSort keys
// are unique, so a correct output is one exact byte sequence and a
// recovered run must reproduce a clean run's digests.
type partDigest [][sha256.Size]byte

func (a partDigest) equal(b partDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyTeraSort checks that the part files under prefix, read in part
// order, form one globally sorted sequence holding exactly the input's
// records (count and order-independent checksum).
func verifyTeraSort(fs *hdfs.FileSystem, prefix string, want recordSum) (partDigest, error) {
	parts := fs.List(prefix + "/")
	if len(parts) == 0 {
		return nil, fmt.Errorf("terasort: no part files under %s", prefix)
	}
	var got recordSum
	var digest partDigest
	var prev []byte
	row := make([]byte, 0, teraRecordSize)
	for _, p := range parts {
		data, err := fs.ReadAll(p, -1)
		if err != nil {
			return nil, err
		}
		digest = append(digest, sha256.Sum256(data))
		r := kv.NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("terasort: %s: %w", p, err)
			}
			if prev != nil && bytes.Compare(prev, rec.Key) > 0 {
				return nil, fmt.Errorf("terasort: output not globally sorted at %s", p)
			}
			prev = append(prev[:0], rec.Key...)
			row = append(append(row[:0], rec.Key...), rec.Value...)
			got.add(row)
		}
	}
	if got != want {
		return nil, fmt.Errorf("terasort: output holds %d records (checksum %x), input %d (checksum %x)",
			got.n, got.sum, want.n, want.sum)
	}
	return digest, nil
}

// verifyWordCount checks the counts under prefix against the reference
// map tallied by the single-goroutine generator.
func verifyWordCount(fs *hdfs.FileSystem, prefix string, want map[string]uint64) error {
	got := make(map[string]uint64, len(want))
	for _, p := range fs.List(prefix + "/") {
		data, err := fs.ReadAll(p, -1)
		if err != nil {
			return err
		}
		r := kv.NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("wordcount: %s: %w", p, err)
			}
			if _, dup := got[string(rec.Key)]; dup {
				return fmt.Errorf("wordcount: word %q emitted twice", rec.Key)
			}
			if len(rec.Value) != 8 {
				return fmt.Errorf("wordcount: word %q has a %d-byte count", rec.Key, len(rec.Value))
			}
			got[string(rec.Key)] = binary.BigEndian.Uint64(rec.Value)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("wordcount: %d distinct words, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			return fmt.Errorf("wordcount: %q counted %d, want %d", w, got[w], c)
		}
	}
	return nil
}
