package hdfs

import (
	"bytes"
	"runtime"
	"testing"

	"datampi/internal/netsim"
)

// Tests at the edges of the split readers' windows: records and lines
// that straddle windows and blocks, lines longer than a window, and
// failover that happens inside a block, one window at a time.

// newlineEvery returns data with every recSize-th byte a newline, so that
// each record is also a line.
func newlineEvery(data []byte, recSize int) []byte {
	out := bytes.Clone(data)
	for i := recSize - 1; i < len(out); i += recSize {
		out[i] = '\n'
	}
	return out
}

// A 100-byte record straddles every window and block boundary of the
// file, and both split readers still deliver every record exactly once.
func TestRecordStraddlesEveryWindowAndBlock(t *testing.T) {
	const recSize, bs = 100, 2*packetSize + 50
	fs := newFS(t, 2, Config{BlockSize: bs, Replication: 2})
	data := newlineEvery(teraFile(t, fs, "/r", 4*bs/recSize+7, recSize), recSize)
	if err := fs.WriteFile("/r", data, 0); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.Locations("/r")
	for _, l := range locs {
		for w := int64(0); w < l.Length; w += packetSize {
			if edge := l.Offset + w; edge > 0 && edge%recSize == 0 {
				t.Fatalf("window edge %d falls between records; the test needs every edge inside one", edge)
			}
		}
	}
	for _, size := range []int{recSize, 0} {
		got, err := readSplits(t, fs, "/r", size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("recSize %d: splits read back %d bytes, not the file's %d", size, len(got), len(data))
		}
	}
}

// A line longer than a window, and one that also runs into the next
// blocks, are assembled whole and delivered once.
func TestLineLongerThanWindow(t *testing.T) {
	const bs = 3*packetSize + 7
	fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
	line := func(c byte, n int) string { return string(bytes.Repeat([]byte{c}, n)) }
	want := []string{
		"short",
		line('a', 5*packetSize/2),  // longer than a window, inside block 0
		line('b', packetSize+1000), // crosses into block 1
		"",
		line('c', 2*bs), // spans all of block 2
		"tail",
	}
	var text []byte
	for _, l := range want {
		text = append(append(text, l...), '\n')
	}
	if err := fs.WriteFile("/t", text, 0); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/t")
	var got []string
	for _, s := range splits {
		if err := fs.ReadLinesInSplit(s, 0, func(l []byte) error {
			got = append(got, string(l))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
	}
}

// windowFS is a one-block file of four windows (the last one 76 bytes
// short) on two datanodes, read from node 0, with a link to count what is
// read remotely.
func windowFS(t *testing.T) (*FileSystem, *netsim.Link, []byte) {
	t.Helper()
	link := netsim.NewLink(netsim.Unlimited)
	const recSize, bs = 100, 4 * packetSize
	fs := newFS(t, 2, Config{BlockSize: bs, Replication: 2, Link: link})
	return fs, link, teraFile(t, fs, "/w", bs/recSize, recSize)
}

// A corrupt chunk in window k of the local replica sends that window, and
// only that window, to the other replica.
func TestSplitReadFailsOverPerWindow(t *testing.T) {
	fs, link, data := windowFS(t)
	flipByte(t, fs, "/w", 0, 0, 2*packetSize+10)
	got, err := readSplits(t, fs, "/w", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("split read back corrupt records")
	}
	if got := link.Stats().PayloadBytes; got != packetSize {
		t.Errorf("remote reads %d bytes, want one window (%d)", got, packetSize)
	}
	if got := fs.nodes[1].BytesRead(); got != packetSize {
		t.Errorf("the other replica served %d bytes, want one window (%d)", got, packetSize)
	}
}

// A datanode that dies between two windows of one split: the rest of the
// split comes from the surviving replica, and nothing is read twice.
func TestSplitReadMarkDeadBetweenWindows(t *testing.T) {
	fs, link, data := windowFS(t)
	splits, _ := fs.Splits("/w")
	var got []byte
	err := fs.ReadRecordsInSplit(splits[0], 100, 0, func(rec []byte) error {
		got = append(got, rec...)
		if len(got) >= packetSize+200 && len(got) < packetSize+300 { // inside window 1
			fs.MarkDead(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("split read back wrong records")
	}
	if got, want := link.Stats().PayloadBytes, int64(len(data)-2*packetSize); got != want {
		t.Errorf("remote reads %d bytes, want the windows after the death (%d)", got, want)
	}
	if got, want := fs.nodes[0].BytesRead()+fs.nodes[1].BytesRead(), int64(len(data)); got != want {
		t.Errorf("the disks served %d bytes for a %d-byte split", got, want)
	}
}

// Reading a 64 MiB file split by split holds one window per split, plus a
// record or line of scratch: at most about two windows allocated a split.
func TestSplitReadAllocatesAboutTwoWindows(t *testing.T) {
	const recSize, bs = 100, 4 << 20
	fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
	data := make([]byte, (64<<20)/recSize*recSize)
	for i := range data {
		data[i] = 'a' + byte(i%26)
	}
	if err := fs.WriteFile("/big", newlineEvery(data, recSize), 0); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/big")
	for _, kind := range []string{"records", "lines"} {
		t.Run(kind, func(t *testing.T) {
			var n int
			count := func([]byte) error { n++; return nil }
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, s := range splits {
				var err error
				if kind == "records" {
					err = fs.ReadRecordsInSplit(s, recSize, 0, count)
				} else {
					err = fs.ReadLinesInSplit(s, 0, count)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if want := len(data) / recSize; n != want {
				t.Fatalf("read %d %s, want %d", n, kind, want)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if limit := uint64(len(splits)) * 2 * packetSize; got > limit {
				t.Errorf("%d splits allocated %d bytes (%.2f windows a split), want <= %d",
					len(splits), got, float64(got)/float64(len(splits))/packetSize, limit)
			}
		})
	}
}

// FuzzSplitReaders writes arbitrary bytes through a Writer in arbitrary
// Write sizes, over small blocks, chunks and windows, and reads them back
// split by split: every record, and every line under the LineRecordReader
// convention, comes back exactly once, in order.
func FuzzSplitReaders(f *testing.F) {
	oldChunk, oldPacket := chunk, packet
	chunk, packet = 8, 32
	f.Cleanup(func() { chunk, packet = oldChunk, oldPacket })

	f.Add([]byte("alpha beta\ngamma delta epsilon\nzeta\neta theta iota kappa\n"), uint8(16), uint8(10), []byte{3, 7})
	f.Add(bytes.Repeat([]byte("0123456789abcdef\n"), 40), uint8(77), uint8(100), []byte{1, 64, 0, 33})
	f.Add([]byte("\n\n\nno newline at the end"), uint8(5), uint8(3), []byte{0})
	f.Add(bytes.Repeat([]byte{'x'}, 300), uint8(40), uint8(37), []byte{255})
	f.Fuzz(func(t *testing.T, data []byte, blockSize, recSize uint8, cuts []byte) {
		bs, rs := int(blockSize)%200+1, int(recSize)%120+1
		data = data[:min(len(data), 64*bs)] // each block is a file: keep an input fast
		data = data[:len(data)/rs*rs]
		fs := newFS(t, 1, Config{BlockSize: int64(bs), Replication: 1})
		w, err := fs.Create("/f", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := len(rest) // without cuts, or after len(data) of them (all empty), one write
			if len(cuts) > 0 && i < len(data) {
				n = min(int(cuts[i%len(cuts)]), n)
			}
			if _, err := w.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		recs, err := readSplits(t, fs, "/f", rs)
		if err != nil {
			t.Fatalf("records: %v", err)
		}
		if !bytes.Equal(recs, data) {
			t.Fatalf("records of %d bytes, block %d: read back %q, want %q", rs, bs, recs, data)
		}
		lines, err := readSplits(t, fs, "/f", 0)
		if err != nil {
			t.Fatalf("lines: %v", err)
		}
		want := data
		if len(want) > 0 && want[len(want)-1] != '\n' {
			want = append(bytes.Clone(want), '\n')
		}
		if !bytes.Equal(lines, want) {
			t.Fatalf("lines, block %d: read back %q, want %q", bs, lines, want)
		}
	})
}
