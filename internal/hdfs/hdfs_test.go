package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"datampi/internal/diskio"
	"datampi/internal/netsim"
)

func newFS(t *testing.T, nodes int, cfg Config) *FileSystem {
	t.Helper()
	disks := make([]*diskio.Disk, nodes)
	for i := range disks {
		d, err := diskio.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	fs, err := New(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t, 3, Config{BlockSize: 1024, Replication: 2})
	data := bytes.Repeat([]byte("0123456789"), 1000) // 10 KB -> 10 blocks
	if err := fs.WriteFile("/a/b", data, 0); err != nil {
		t.Fatal(err)
	}
	sz, err := fs.Size("/a/b")
	if err != nil || sz != int64(len(data)) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	got, err := fs.ReadAll("/a/b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestBlockLayoutAndReplication(t *testing.T) {
	fs := newFS(t, 4, Config{BlockSize: 100, Replication: 2})
	data := make([]byte, 250) // 2 full blocks + 1 partial
	if err := fs.WriteFile("/f", data, 1); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.Locations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("got %d blocks, want 3", len(locs))
	}
	wantLens := []int64{100, 100, 50}
	var off int64
	for i, l := range locs {
		if l.Length != wantLens[i] {
			t.Errorf("block %d length %d, want %d", i, l.Length, wantLens[i])
		}
		if l.Offset != off {
			t.Errorf("block %d offset %d, want %d", i, l.Offset, off)
		}
		off += l.Length
		if len(l.Hosts) != 2 {
			t.Errorf("block %d has %d replicas", i, len(l.Hosts))
		}
		if l.Hosts[0] != 1 {
			t.Errorf("block %d first replica %d, want writer-local 1", i, l.Hosts[0])
		}
	}
}

func TestReadBlockLocality(t *testing.T) {
	link := netsim.NewLink(netsim.Unlimited)
	fs := newFS(t, 3, Config{BlockSize: 64, Replication: 1, Link: link})
	if err := fs.WriteFile("/f", make([]byte, 64), 2); err != nil {
		t.Fatal(err)
	}
	_, local, err := fs.ReadBlock("/f", 0, 2)
	if err != nil || !local {
		t.Errorf("local read: local=%v err=%v", local, err)
	}
	if link.Stats().PayloadBytes != 0 {
		t.Error("local read charged the network")
	}
	_, local, err = fs.ReadBlock("/f", 0, 0)
	if err != nil || local {
		t.Errorf("remote read: local=%v err=%v", local, err)
	}
	if link.Stats().PayloadBytes != 64 {
		t.Errorf("remote read charged %d bytes", link.Stats().PayloadBytes)
	}
}

func TestDeleteAndOverwrite(t *testing.T) {
	fs := newFS(t, 2, Config{BlockSize: 10, Replication: 1})
	if err := fs.WriteFile("/f", []byte("0123456789abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("xyz"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadAll("/f", 0)
	if string(got) != "xyz" {
		t.Errorf("overwrite read %q", got)
	}
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Error("file still exists after delete")
	}
	if err := fs.Delete("/f"); err != ErrNotFound {
		t.Errorf("double delete: %v", err)
	}
	if _, err := fs.ReadAll("/f", 0); err != ErrNotFound {
		t.Errorf("read deleted: %v", err)
	}
}

func TestList(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 10, Replication: 1})
	for _, p := range []string{"/out/part-1", "/out/part-0", "/in/x"} {
		if err := fs.WriteFile(p, []byte("d"), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/out/")
	if len(got) != 2 || got[0] != "/out/part-0" || got[1] != "/out/part-1" {
		t.Errorf("List = %v", got)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 10, Replication: 1})
	if err := fs.WriteFile("/empty", nil, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/empty", 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty read: %v %v", got, err)
	}
	locs, _ := fs.Locations("/empty")
	if len(locs) != 0 {
		t.Errorf("empty file has %d blocks", len(locs))
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := newFS(t, 3, Config{BlockSize: 37, Replication: 2})
	i := 0
	f := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/p%d", i)
		if err := fs.WriteFile(path, data, i%3); err != nil {
			return false
		}
		got, err := fs.ReadAll(path, (i+1)%3)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitsAndRankAssignment(t *testing.T) {
	fs := newFS(t, 2, Config{BlockSize: 100, Replication: 1})
	if err := fs.WriteFile("/f1", make([]byte, 350), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f2", make([]byte, 100), 1); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/f1", "/f2")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("got %d splits, want 5", len(splits))
	}
	seen := 0
	for rank := 0; rank < 3; rank++ {
		seen += len(SplitsForRank(splits, rank, 3))
	}
	if seen != 5 {
		t.Errorf("rank partition covers %d splits", seen)
	}
}

func TestReadLinesInSplitBoundaries(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 16, Replication: 1})
	// Lines crossing block boundaries deliberately.
	text := "alpha beta\ngamma delta epsilon\nzeta\neta theta iota kappa\n"
	if err := fs.WriteFile("/t", []byte(text), 0); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/t")
	var lines []string
	for _, s := range splits {
		err := fs.ReadLinesInSplit(s, 0, func(line []byte) error {
			lines = append(lines, string(line))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha beta", "gamma delta epsilon", "zeta", "eta theta iota kappa"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %v", len(lines), lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestReadLinesSplitLineExactlyOnce(t *testing.T) {
	// Property: regardless of block size, every line is seen exactly once.
	for _, bs := range []int64{5, 7, 13, 64} {
		fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
		var sb bytes.Buffer
		var want []string
		for i := 0; i < 30; i++ {
			l := fmt.Sprintf("line-%02d", i)
			want = append(want, l)
			sb.WriteString(l + "\n")
		}
		if err := fs.WriteFile("/t", sb.Bytes(), 0); err != nil {
			t.Fatal(err)
		}
		splits, _ := fs.Splits("/t")
		var got []string
		for _, s := range splits {
			fs.ReadLinesInSplit(s, 0, func(line []byte) error {
				got = append(got, string(line))
				return nil
			})
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: got %d lines, want %d", bs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("bs=%d line %d: %q != %q", bs, i, got[i], want[i])
			}
		}
	}
}

func TestReadRecordsInSplit(t *testing.T) {
	const recSize = 10
	for _, bs := range []int64{25, 30, 100} { // 25: records cross blocks
		fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
		var data []byte
		const n = 12
		for i := 0; i < n; i++ {
			rec := bytes.Repeat([]byte{byte('a' + i)}, recSize)
			data = append(data, rec...)
		}
		if err := fs.WriteFile("/r", data, 0); err != nil {
			t.Fatal(err)
		}
		splits, _ := fs.Splits("/r")
		var got []byte
		count := 0
		for _, s := range splits {
			err := fs.ReadRecordsInSplit(s, recSize, 0, func(rec []byte) error {
				if len(rec) != recSize {
					return io.ErrShortBuffer
				}
				got = append(got, rec[0])
				count++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if count != n {
			t.Fatalf("bs=%d: got %d records, want %d (%q)", bs, count, n, got)
		}
		for i := 0; i < n; i++ {
			if got[i] != byte('a'+i) {
				t.Errorf("bs=%d record %d = %c", bs, i, got[i])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	d, _ := diskio.New(t.TempDir())
	if _, err := New(Config{BlockSize: 0}, []*diskio.Disk{d}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{BlockSize: 10}, nil); err == nil {
		t.Error("no datanodes accepted")
	}
	fs, err := New(Config{BlockSize: 10, Replication: 99}, []*diskio.Disk{d})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.Locations("/f")
	if len(locs[0].Hosts) != 1 {
		t.Errorf("replication not clamped: %d", len(locs[0].Hosts))
	}
}

// blockDigest is one block of a file as the namenode records it.
type blockDigest struct {
	length int64
	crcs   string // the chunk CRCs, printed
}

func fileDigest(t *testing.T, fs *FileSystem, path string) []blockDigest {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		t.Fatalf("%s missing", path)
	}
	out := make([]blockDigest, len(fm.blocks))
	for i, b := range fm.blocks {
		out[i] = blockDigest{b.length, fmt.Sprint(b.crcs)}
	}
	return out
}

// TestWriterChunkingInvariant: however the bytes are cut into Write calls,
// the file has the block lengths, CRCs and contents of one WriteFile.
func TestWriterChunkingInvariant(t *testing.T) {
	const bs = 1000
	fs := newFS(t, 2, Config{BlockSize: bs, Replication: 2})
	data := make([]byte, 3*bs+123)
	for i := range data {
		data[i] = byte(i*7 + i/bs)
	}
	if err := fs.WriteFile("/ref", data, 0); err != nil {
		t.Fatal(err)
	}
	want := fileDigest(t, fs, "/ref")
	cuts := map[string][]int{
		"1-byte":          {1},
		"100-byte":        {100},
		"block-multiples": {bs, 2 * bs},
		"over-two-blocks": {2*bs + 1},
		"zero-and-odd":    {0, 37, 0, 999, 0, 1},
	}
	for name, sizes := range cuts {
		w, err := fs.Create("/"+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		rest := data
		for i := 0; len(rest) > 0; i++ {
			n := min(sizes[i%len(sizes)], len(rest))
			got, err := w.Write(rest[:n])
			if err != nil || got != n {
				t.Fatalf("%s: Write(%d) = %d, %v", name, n, got, err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fileDigest(t, fs, "/"+name); !slices.Equal(got, want) {
			t.Errorf("%s: blocks %v, WriteFile gave %v", name, got, want)
		}
		back, err := fs.ReadAll("/"+name, 1)
		if err != nil || !bytes.Equal(back, data) {
			t.Errorf("%s: read back %d bytes, %v", name, len(back), err)
		}
	}
}

// blockFilesLeft lists the block replica files on every datanode.
func blockFilesLeft(fs *FileSystem) []string {
	var left []string
	for i, d := range fs.nodes {
		names, _ := d.List("hdfs") // a datanode whose block directory is broken holds none
		for _, name := range names {
			left = append(left, fmt.Sprintf("node %d: %s", i, name))
		}
	}
	return left
}

// TestWriterErrorsSticky: a failed block write poisons the writer and
// leaves no replica file behind, and a closed writer refuses writes.
func TestWriterErrorsSticky(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		broken int // the datanode whose block directory is a plain file
	}{
		{"only-replica", 1, 0},
		{"second-replica", 2, 1}, // the first replica is created, then the second fails
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, tc.nodes, Config{BlockSize: 10, Replication: tc.nodes})
			w, err := fs.Create("/f", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fs.nodes[tc.broken].Path("hdfs"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(make([]byte, 25)); err == nil {
				t.Fatal("block write onto a broken datanode succeeded")
			}
			if left := blockFilesLeft(fs); len(left) > 0 {
				t.Errorf("a failed block write left replica files: %v", left)
			}
			if _, err := w.Write([]byte("x")); err == nil {
				t.Error("write after a failed block write succeeded")
			}
			if err := w.Close(); err == nil {
				t.Error("Close after a failed block write succeeded")
			}
			if locs, _ := fs.Locations("/f"); len(locs) != 0 {
				t.Errorf("a failed block was published: %v", locs)
			}
		})
	}

	fs2 := newFS(t, 1, Config{BlockSize: 10, Replication: 1})
	w2, _ := fs2.Create("/g", 0)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("late")); err == nil {
		t.Error("write after Close succeeded")
	}

	// A file deleted while its last block is in flight: the block is
	// neither published nor left on disk.
	w3, _ := fs2.Create("/h", 0)
	if _, err := w3.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Delete("/h"); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); !errors.Is(err, ErrNotFound) {
		t.Errorf("Close of a deleted file: %v, want ErrNotFound", err)
	}
	if left := blockFilesLeft(fs2); len(left) > 0 {
		t.Errorf("a block of a deleted file was left: %v", left)
	}
}

// TestWriterAllocatesAboutOnePacket: writing three blocks in 100-byte
// writes stages them through one packet-sized buffer — about 1.25
// packets allocated in total, nothing that grows with the block.
func TestWriterAllocatesAboutOnePacket(t *testing.T) {
	const bs = 4 << 20
	fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
	chunk := make([]byte, 100)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := fs.Create("/big", 0)
	if err != nil {
		t.Fatal(err)
	}
	for written := 0; written < 3*bs; written += len(chunk) {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(w.buf); c > packetSize {
		t.Errorf("staging buffer of %d bytes, more than one packet", c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(packetSize)*5/4; got > limit {
		t.Errorf("3 blocks in 100 B writes allocated %d bytes (%.2f packets), want <= %d",
			got, float64(got)/packetSize, limit)
	}
}

// TestWriterTinyFileStaysSmall: a small file must not stage a whole block.
func TestWriterTinyFileStaysSmall(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 4 << 20, Replication: 1})
	w, _ := fs.Create("/tiny", 0)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.buf); c > 64<<10 {
		t.Errorf("5-byte file staged in a %d-byte buffer", c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
