package hdfs

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"datampi/internal/diskio"
	"datampi/internal/netsim"
)

// Tests for per-chunk checksums and range reads: every read verifies each
// chunk it covers, a straddling record or line reads only the chunks it
// needs, and a remote range read charges the link for those alone.

// flipByte corrupts one byte of block blockIdx's replica on host, at off.
func flipByte(t *testing.T, fs *FileSystem, path string, blockIdx, host int, off int64) {
	t.Helper()
	fs.mu.Lock()
	id := fs.files[path].blocks[blockIdx].id
	fs.mu.Unlock()
	p := fs.nodes[host].Path(blockFile(id))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// teraFile writes n fixed-size records, record i filled from i, and
// returns the file's bytes.
func teraFile(t *testing.T, fs *FileSystem, path string, n, recSize int) []byte {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, recSize)
		copy(rec, fmt.Sprintf("%08d", i))
		data = append(data, rec...)
	}
	if err := fs.WriteFile(path, data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// readSplits reads every split of path from reader 0, concatenating the
// records, or the lines with their newlines.
func readSplits(t *testing.T, fs *FileSystem, path string, recSize int) ([]byte, error) {
	t.Helper()
	splits, err := fs.Splits(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, s := range splits {
		if recSize > 0 {
			err = fs.ReadRecordsInSplit(s, recSize, 0, func(rec []byte) error {
				got = append(got, rec...)
				return nil
			})
		} else {
			err = fs.ReadLinesInSplit(s, 0, func(line []byte) error {
				got = append(append(got, line...), '\n')
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// A flipped byte in the last (short) chunk of a block fails a whole-block
// read over to the intact replica.
func TestChecksumLastChunkFailsOver(t *testing.T) {
	const bs = 3*bytesPerChecksum + 100
	fs := newFS(t, 3, Config{BlockSize: bs, Replication: 2})
	data := make([]byte, bs)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/f", data, 0); err != nil {
		t.Fatal(err)
	}
	flipByte(t, fs, "/f", 0, 0, bs-1)
	got, local, err := fs.ReadBlock("/f", 0, 0)
	if err != nil {
		t.Fatalf("read after corruption: %v", err)
	}
	if local {
		t.Error("the corrupt local replica satisfied the read")
	}
	if !bytes.Equal(got, data) {
		t.Error("failover read returned wrong data")
	}
}

// A record crossing into the next block reads that block's first chunk by
// range: a flipped byte there is caught and failed over, and a flipped
// byte in a later chunk is never read at all.
func TestStraddleReadVerifiesItsChunk(t *testing.T) {
	const recSize, bs = 100, 2*bytesPerChecksum + 50 // records straddle every boundary
	fs := newFS(t, 2, Config{BlockSize: bs, Replication: 2})
	data := teraFile(t, fs, "/r", 3*bs/recSize, recSize)
	split0 := func() ([]byte, error) {
		splits, _ := fs.Splits("/r")
		var got []byte
		err := fs.ReadRecordsInSplit(splits[0], recSize, 0, func(rec []byte) error {
			got = append(got, rec...)
			return nil
		})
		return got, err
	}
	want := data[:(bs/recSize+1)*recSize]

	flipByte(t, fs, "/r", 1, 0, 10) // the straddling record's tail, local replica
	flipByte(t, fs, "/r", 1, 0, bytesPerChecksum+10)
	flipByte(t, fs, "/r", 1, 1, bytesPerChecksum+10) // beyond the tail, every replica
	got, err := split0()
	if err != nil {
		t.Fatalf("split 0 with a corrupt local tail chunk: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("split 0 returned corrupt records")
	}

	flipByte(t, fs, "/r", 1, 1, 10) // now the tail chunk is corrupt everywhere
	if _, err := split0(); err == nil {
		t.Error("straddle read succeeded with every replica of its chunk corrupt")
	}
}

// Reading every split of a file reads each block once: at most the file
// plus one checksum chunk per split, counted at the disks.
func TestSplitReadersReadEachBlockOnce(t *testing.T) {
	const recSize, bs = 100, 2*bytesPerChecksum + 50
	for _, kind := range []string{"records", "lines"} {
		t.Run(kind, func(t *testing.T) {
			fs := newFS(t, 2, Config{BlockSize: bs, Replication: 1})
			data := teraFile(t, fs, "/r", 5*bs/recSize+3, recSize)
			size := recSize
			if kind == "lines" {
				for i := recSize - 1; i < len(data); i += recSize {
					data[i] = '\n'
				}
				if err := fs.WriteFile("/r", data, 0); err != nil {
					t.Fatal(err)
				}
				size = 0
			}
			splits, _ := fs.Splits("/r")
			var before int64
			for _, d := range fs.nodes {
				before += d.BytesRead()
			}
			got, err := readSplits(t, fs, "/r", size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("splits did not read the file back")
			}
			var read int64
			for _, d := range fs.nodes {
				read += d.BytesRead()
			}
			read -= before
			if limit := int64(len(data) + len(splits)*bytesPerChecksum); read > limit {
				t.Errorf("%d splits of a %d-byte file read %d bytes, want <= %d", len(splits), len(data), read, limit)
			}
		})
	}
}

// A remote range read charges the link the chunk bytes it read, not the
// block; a local one charges nothing.
func TestRangeReadChargesLinkItsBytes(t *testing.T) {
	link := netsim.NewLink(netsim.Unlimited)
	const bs = 3 * bytesPerChecksum
	fs := newFS(t, 2, Config{BlockSize: bs, Replication: 1, Link: link})
	if err := fs.WriteFile("/f", make([]byte, bs), 1); err != nil {
		t.Fatal(err)
	}
	if _, local, err := fs.readRange("/f", 0, 1, 0, 10); err != nil || !local {
		t.Fatalf("local range read: local=%v err=%v", local, err)
	}
	if got := link.Stats().PayloadBytes; got != 0 {
		t.Errorf("local range read charged %d bytes", got)
	}
	got, local, err := fs.readRange("/f", 0, 0, bytesPerChecksum-5, 10)
	if err != nil || local || len(got) != 10 {
		t.Fatalf("remote range read: %d bytes, local=%v err=%v", len(got), local, err)
	}
	if got, want := link.Stats().PayloadBytes, int64(2*bytesPerChecksum); got != want {
		t.Errorf("remote range over two chunks charged %d bytes, want %d", got, want)
	}
}

// readRange rejects a range outside the block.
func TestRangeReadBounds(t *testing.T) {
	d, _ := diskio.New(t.TempDir())
	fs, _ := New(Config{BlockSize: 100, Replication: 1}, []*diskio.Disk{d})
	if err := fs.WriteFile("/f", make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{-1, 5}, {90, 11}, {101, -1}} {
		if _, _, err := fs.readRange("/f", 0, 0, r[0], r[1]); err == nil {
			t.Errorf("range %v of a 100-byte block accepted", r)
		}
	}
	if got, _, err := fs.readRange("/f", 0, 0, 100, 0); err != nil || len(got) != 0 {
		t.Errorf("empty range at the block end: %d bytes, %v", len(got), err)
	}
}
