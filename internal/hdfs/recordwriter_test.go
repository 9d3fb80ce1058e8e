package hdfs

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"datampi/internal/kv"
)

// Tests of kv.Writer over a Writer, the way a TeraSort A task writes its
// part file: kv.Writer encodes each record straight into the staged
// packet's free space (AvailableBuffer), and the file must hold exactly
// the concatenated framed records, in the blocks WriteFile would make.

// writeRecords writes recs through a kv.Writer into a new file at path
// and returns the bytes they frame to.
func writeRecords(t *testing.T, fs *FileSystem, path string, recs []kv.Record) []byte {
	t.Helper()
	out, err := fs.Create(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := kv.NewWriter(out)
	var want []byte
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		want = kv.AppendRecord(want, r)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// teraRecords is n TeraSort-shaped records: 10-byte keys, 90-byte values,
// every byte varying.
func teraRecords(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		b := make([]byte, 100)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		recs[i] = kv.Record{Key: b[:10], Value: b[10:]}
	}
	return recs
}

func TestRecordWriterMatchesAppendRecord(t *testing.T) {
	big := kv.Record{Key: []byte("big"), Value: bytes.Repeat([]byte{'b'}, packetSize+packetSize/3)}
	withBig := teraRecords(3000)
	withBig = slices.Insert(withBig, 1500, big)
	withBig = append(withBig, big)
	for _, tc := range []struct {
		name string
		bs   int64
		recs []kv.Record
	}{
		// 101-byte framed records straddle every packet and block edge.
		{"straddle-packets-and-blocks", 2 * packetSize, teraRecords(8000)},
		{"record-larger-than-packet", 4 * packetSize, withBig},
		{"block-not-packet-multiple", 2*packetSize + 50, teraRecords(8000)},
		{"block-smaller-than-packet", packetSize / 3, teraRecords(2000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, 2, Config{BlockSize: tc.bs, Replication: 2})
			want := writeRecords(t, fs, "/part", tc.recs)
			got, err := fs.ReadAll("/part", 1)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read back %d bytes (%v), want the %d framed records' bytes", len(got), err, len(want))
			}
			if err := fs.WriteFile("/ref", want, 0); err != nil {
				t.Fatal(err)
			}
			if got, ref := fileDigest(t, fs, "/part"), fileDigest(t, fs, "/ref"); !slices.Equal(got, ref) {
				t.Errorf("blocks %v, WriteFile gave %v", got, ref)
			}
		})
	}
}

// AvailableBuffer never reaches past the packet being staged, nor past
// the block when its tail is shorter than a packet.
func TestAvailableBufferStopsAtPacket(t *testing.T) {
	const bs = packetSize + 100
	fs := newFS(t, 1, Config{BlockSize: bs, Replication: 1})
	w, _ := fs.Create("/f", 0)
	data := make([]byte, packetSize-10)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.AvailableBuffer()); c != 10 {
		t.Errorf("10 bytes short of a packet: AvailableBuffer capacity %d, want 10", c)
	}
	if _, err := w.Write(data[:20]); err != nil { // fills the packet, stages 10 of the block's last 100
		t.Fatal(err)
	}
	if c := cap(w.AvailableBuffer()); c != 90 {
		t.Errorf("90 bytes short of a block: AvailableBuffer capacity %d, want 90", c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c := cap(w.AvailableBuffer()); c != 0 {
		t.Errorf("closed Writer: AvailableBuffer capacity %d, want 0", c)
	}
}

// After a failed packet write, kv.Writer's writes keep failing with the
// Writer's sticky error, whether a record would have fit the packet or
// not, and nothing is published or left on disk.
func TestRecordWriterAfterStickyError(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 4 << 20, Replication: 1})
	out, err := fs.Create("/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.nodes[0].Path("hdfs"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := kv.NewWriter(out)
	var first error
	for _, r := range teraRecords(3000) { // past one packet
		if first = w.Write(r); first != nil {
			break
		}
	}
	if first == nil {
		t.Fatal("records written onto a broken datanode all succeeded")
	}
	n := w.Count()
	if c := cap(out.AvailableBuffer()); c != 0 {
		t.Errorf("failed Writer: AvailableBuffer capacity %d, want 0", c)
	}
	for _, r := range []kv.Record{{Key: []byte("k")}, {Value: make([]byte, 2*packetSize)}} {
		if err := w.Write(r); err != first {
			t.Errorf("write after the failure: %v, want the sticky %v", err, first)
		}
	}
	if w.Count() != n {
		t.Errorf("Count moved from %d to %d on failed writes", n, w.Count())
	}
	if err := out.Close(); err != first {
		t.Errorf("Close: %v, want the sticky %v", err, first)
	}
	if left := blockFilesLeft(fs); len(left) > 0 {
		t.Errorf("a failed write left replica files: %v", left)
	}
	if locs, _ := fs.Locations("/f"); len(locs) != 0 {
		t.Errorf("a failed block was published: %v", locs)
	}
}

// Once the packet buffer is staged, writing records through kv.Writer
// allocates nothing per record: each is encoded in place, and the one
// record per packet that does not fit its tail goes through kv.Writer's
// reused buffer.
func TestRecordWriterAllocatesNothingPerRecord(t *testing.T) {
	fs := newFS(t, 1, Config{BlockSize: 64 << 20, Replication: 1})
	out, err := fs.Create("/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	w := kv.NewWriter(out)
	recs := teraRecords(100)
	write := func() {
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 3 * packetSize / (100 * len(recs)) { // past the first packets
		write()
	}
	if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
		t.Errorf("writing %d records allocated %v times, want 0", len(recs), allocs)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
