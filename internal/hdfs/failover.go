package hdfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
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

func (fs *FileSystem) aliveHosts(b blockMeta) []int {
	var out []int
	for _, h := range b.hosts {
		if !fs.dead[h] {
			out = append(out, h)
		}
	}
	return out
}

// readChunks reads the checksum chunks of block b that cover the n bytes
// at off, trying the preferred host first and failing over to the other
// live replicas. It returns the n bytes, the host that served them and how
// many bytes it read there.
func (fs *FileSystem) readChunks(b blockMeta, reader int, off, n int64) (data []byte, src int, read int64, err error) {
	fs.mu.Lock()
	hosts := fs.aliveHosts(b)
	fs.mu.Unlock()
	if len(hosts) == 0 {
		return nil, -1, 0, fmt.Errorf("hdfs: block %d has no live replica", b.id)
	}
	// Preferred (local) replica first.
	sort.SliceStable(hosts, func(i, j int) bool { return hosts[i] == reader && hosts[j] != reader })
	lo := off / bytesPerChecksum * bytesPerChecksum
	hi := min((off+n+bytesPerChecksum-1)/bytesPerChecksum*bytesPerChecksum, b.length)
	var lastErr error
	for _, h := range hosts {
		buf, err := fs.readReplica(b, h, lo, hi)
		if err != nil {
			lastErr = err
			continue
		}
		return buf[off-lo : off-lo+n], h, hi - lo, nil
	}
	return nil, -1, 0, fmt.Errorf("hdfs: all replicas of block %d failed: %w", b.id, lastErr)
}

// readReplica reads bytes [lo, hi) of block b's replica on host h (lo on a
// chunk boundary, hi on one or at the block's end) and verifies each chunk
// checksum, as the DFS client does; a corrupt replica is an error, so the
// caller fails over to the next one.
func (fs *FileSystem) readReplica(b blockMeta, h int, lo, hi int64) ([]byte, error) {
	f, err := fs.nodes[h].Open(blockFile(b.id))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, hi-lo)
	_, err = f.ReadAt(buf, lo)
	f.Close()
	if err != nil {
		return nil, err
	}
	c := int(lo / bytesPerChecksum)
	for i := 0; i < len(buf); i, c = i+bytesPerChecksum, c+1 {
		if crc := crc32.ChecksumIEEE(buf[i:min(i+bytesPerChecksum, len(buf))]); crc != b.crcs[c] {
			return nil, fmt.Errorf("hdfs: block %d replica on node %d corrupt in chunk %d (crc %08x != %08x)",
				b.id, h, c, crc, b.crcs[c])
		}
	}
	return buf, nil
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
			if len(fs.aliveHosts(b)) == 0 {
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
