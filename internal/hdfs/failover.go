package hdfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"datampi/internal/diskio"
)

// Replica failover and cluster reporting: a datanode can be marked dead
// (the paper's testbeds lose disks too), after which reads transparently
// fall back to surviving replicas, and the namenode can report blocks that
// lost all replicas.

// MarkDead marks a datanode as failed: its replicas become unreadable
// until MarkAlive.
func (fs *FileSystem) MarkDead(node int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead == nil {
		fs.dead = map[int]bool{}
	}
	fs.dead[node] = true
}

// MarkAlive reverses MarkDead.
func (fs *FileSystem) MarkAlive(node int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.dead, node)
}

// appendAliveHosts appends the hosts of b's live replicas to dst. Caller
// holds fs.mu.
func (fs *FileSystem) appendAliveHosts(dst []int, b blockMeta) []int {
	for _, h := range b.hosts {
		if !fs.dead[h] {
			dst = append(dst, h)
		}
	}
	return dst
}

// blockReader reads one block window by window for one reader. It keeps
// the serving replica's file open across windows, verifies every chunk it
// reads, and fails over per window: a window that meets a corrupt chunk,
// a failed read or a dead host is read again, whole, from the next live
// replica, the reader's own first. Remote bytes are charged to the link as
// one message when the reader closes, as one block read.
type blockReader struct {
	fs     *FileSystem
	b      blockMeta
	reader int
	hosts  []int        // scratch: the live replicas for one window
	host   int          // the replica f is open on, or -1
	f      *diskio.File // nil when no replica is open
	remote int64        // bytes served by a replica not on reader
}

func (fs *FileSystem) openBlock(b blockMeta, reader int) *blockReader {
	return &blockReader{fs: fs, b: b, reader: reader, host: -1}
}

// read fills buf with bytes [lo, lo+len(buf)) of the block. lo is on a
// chunk boundary, and the end is on one or at the block's end.
func (br *blockReader) read(buf []byte, lo int64) error {
	if len(buf) == 0 {
		return nil
	}
	fs := br.fs
	fs.mu.Lock()
	hosts := fs.appendAliveHosts(br.hosts[:0], br.b)
	br.hosts = hosts
	fs.mu.Unlock()
	// The reader's own replica first.
	if i := slices.Index(hosts, br.reader); i > 0 {
		copy(hosts[1:i+1], hosts[:i])
		hosts[0] = br.reader
	}
	lastErr := fmt.Errorf("hdfs: block %d has no live replica", br.b.id)
	for _, h := range hosts {
		if err := br.readFrom(h, buf, lo); err != nil {
			br.closeFile()
			lastErr = fmt.Errorf("hdfs: all replicas of block %d failed: %w", br.b.id, err)
			continue
		}
		if h != br.reader {
			br.remote += int64(len(buf))
		}
		return nil
	}
	br.closeFile()
	return lastErr
}

// readFrom reads the window from the replica on host h and verifies each
// of its chunk checksums, as the DFS client does.
func (br *blockReader) readFrom(h int, buf []byte, lo int64) error {
	if br.host != h {
		br.closeFile()
		f, err := br.fs.nodes[h].Open(blockFile(br.b.id))
		if err != nil {
			return err
		}
		br.f, br.host = f, h
	}
	if _, err := br.f.ReadAt(buf, lo); err != nil {
		return err
	}
	c := int(lo / int64(chunk))
	for i := 0; i < len(buf); i, c = i+chunk, c+1 {
		if crc := crc32.ChecksumIEEE(buf[i:min(i+chunk, len(buf))]); crc != br.b.crcs[c] {
			return fmt.Errorf("hdfs: block %d replica on node %d corrupt in chunk %d (crc %08x != %08x)",
				br.b.id, h, c, crc, br.b.crcs[c])
		}
	}
	return nil
}

func (br *blockReader) closeFile() {
	if br.f != nil {
		br.f.Close()
		br.f, br.host = nil, -1
	}
}

// close releases the open replica and charges the link for the remote
// bytes read.
func (br *blockReader) close() {
	br.closeFile()
	if br.remote > 0 && br.fs.cfg.Link != nil {
		br.fs.cfg.Link.Transfer(br.remote, 64, 1)
	}
	br.remote = 0
}

// CorruptReplica flips a byte of one replica on disk (test/chaos helper:
// the corruption is discovered by the read-path checksum).
func (fs *FileSystem) CorruptReplica(path string, blockIdx, host int) error {
	fs.mu.Lock()
	fm, ok := fs.files[path]
	if !ok || blockIdx < 0 || blockIdx >= len(fm.blocks) {
		fs.mu.Unlock()
		return ErrNotFound
	}
	b := fm.blocks[blockIdx]
	fs.mu.Unlock()
	f, err := fs.nodes[host].Open(blockFile(b.id))
	if err != nil {
		return err
	}
	data := make([]byte, b.length)
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if len(data) == 0 {
		return nil
	}
	data[0] ^= 0xFF
	w, err := fs.nodes[host].Create(blockFile(b.id))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// MissingBlocks reports files that have at least one block with no live
// replica — the namenode's corrupt-file report.
func (fs *FileSystem) MissingBlocks() map[string]int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := map[string]int{}
	for path, fm := range fs.files {
		for _, b := range fm.blocks {
			if len(fs.appendAliveHosts(nil, b)) == 0 {
				out[path]++
			}
		}
	}
	for p, n := range out {
		if n == 0 {
			delete(out, p)
		}
	}
	return out
}

// Stats summarizes the cluster state (the dfsadmin -report analogue).
type Stats struct {
	Files          int
	Blocks         int
	Bytes          int64
	BlocksPerNode  []int
	DeadNodes      []int
	UnderReplBlcks int // blocks with fewer live replicas than configured
}

// Report returns the cluster statistics.
func (fs *FileSystem) Report() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := Stats{BlocksPerNode: make([]int, len(fs.nodes))}
	for _, fm := range fs.files {
		st.Files++
		st.Bytes += fm.size
		for _, b := range fm.blocks {
			st.Blocks++
			live := 0
			for _, h := range b.hosts {
				if !fs.dead[h] {
					st.BlocksPerNode[h]++
					live++
				}
			}
			if live < len(b.hosts) {
				st.UnderReplBlcks++
			}
		}
	}
	for n := range fs.nodes {
		if fs.dead[n] {
			st.DeadNodes = append(st.DeadNodes, n)
		}
	}
	return st
}
