// Package hdfs simulates the Hadoop Distributed File System at the fidelity
// the paper's experiments need: files are split into fixed-size blocks,
// blocks are replicated across datanodes (each backed by a diskio.Disk),
// and a namenode tracks block -> host locality so schedulers can place
// tasks next to their data (the paper's Data-centric feature and the
// Fig. 8(a) block-size tuning experiment). Remote block reads are charged
// to a netsim.Link, so locality misses have a measurable cost.
//
// As in HDFS (dfs.bytes-per-checksum), a block carries one CRC-32 per
// 64 KiB chunk rather than one for the whole block. Every read verifies
// each chunk it covers and fails over to the next replica on a mismatch,
// so a read of a few bytes (the tail of a record or line that crosses
// into the next block) fetches and checks one chunk, not the block.
package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"datampi/internal/diskio"
	"datampi/internal/netsim"
)

// ErrNotFound is returned for operations on nonexistent paths.
var ErrNotFound = errors.New("hdfs: file not found")

// Config configures a FileSystem.
type Config struct {
	// BlockSize is the HDFS block size in bytes (paper default 256 MB on
	// Testbed A; scaled down in laptop experiments).
	BlockSize int64
	// Replication is the number of datanodes holding each block.
	Replication int
	// Link, if set, is charged for every remote (non-local) block read.
	Link *netsim.Link
}

// DefaultConfig mirrors a small test deployment: 4 MB blocks, 2 replicas.
func DefaultConfig() Config { return Config{BlockSize: 4 << 20, Replication: 2} }

// bytesPerChecksum is the span one block checksum covers.
const bytesPerChecksum = 64 << 10

type blockMeta struct {
	id     int64
	length int64
	crcs   []uint32 // CRC-32 of each bytesPerChecksum chunk of the block
	hosts  []int    // datanode indices holding a replica
}

// chunkCRCs checksums data chunk by chunk.
func chunkCRCs(data []byte) []uint32 {
	crcs := make([]uint32, 0, (len(data)+bytesPerChecksum-1)/bytesPerChecksum)
	for off := 0; off < len(data); off += bytesPerChecksum {
		crcs = append(crcs, crc32.ChecksumIEEE(data[off:min(off+bytesPerChecksum, len(data))]))
	}
	return crcs
}

type fileMeta struct {
	size   int64
	blocks []blockMeta
}

// FileSystem is the namenode plus its datanodes.
type FileSystem struct {
	cfg   Config
	nodes []*diskio.Disk

	mu      sync.Mutex
	files   map[string]*fileMeta
	nextBlk int64
	nextPos int          // round-robin replica placement cursor
	dead    map[int]bool // failed datanodes (see failover.go)
}

// New creates a FileSystem over the given datanode disks.
func New(cfg Config, nodes []*diskio.Disk) (*FileSystem, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size %d", cfg.BlockSize)
	}
	if len(nodes) == 0 {
		return nil, errors.New("hdfs: need at least one datanode")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(nodes) {
		cfg.Replication = len(nodes)
	}
	return &FileSystem{cfg: cfg, nodes: nodes, files: make(map[string]*fileMeta)}, nil
}

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.cfg.BlockSize }

// NumNodes returns the number of datanodes.
func (fs *FileSystem) NumNodes() int { return len(fs.nodes) }

func blockFile(id int64) string { return fmt.Sprintf("hdfs/blk_%d", id) }

// Create opens a new file for writing, replacing any existing file at path.
// preferredHost is the datanode index of the writer (HDFS places the first
// replica locally); pass -1 for no preference.
func (fs *FileSystem) Create(path string, preferredHost int) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[path]; ok {
		fs.deleteBlocksLocked(old)
	}
	fs.files[path] = &fileMeta{}
	return &Writer{fs: fs, path: path, preferred: preferredHost}, nil
}

func (fs *FileSystem) deleteBlocksLocked(fm *fileMeta) {
	for _, b := range fm.blocks {
		for _, h := range b.hosts {
			_ = fs.nodes[h].Remove(blockFile(b.id))
		}
	}
}

// Delete removes a file. Deleting a missing file is an error.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		return ErrNotFound
	}
	fs.deleteBlocksLocked(fm)
	delete(fs.files, path)
	return nil
}

// Exists reports whether path exists.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the file's length.
func (fs *FileSystem) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		return 0, ErrNotFound
	}
	return fm.size, nil
}

// List returns all file paths with the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// pickHosts chooses replica hosts: the preferred (writer-local) node first,
// then round-robin across the rest of the cluster.
func (fs *FileSystem) pickHosts(preferred int) []int {
	n := len(fs.nodes)
	hosts := make([]int, 0, fs.cfg.Replication)
	used := make(map[int]bool)
	if preferred >= 0 && preferred < n {
		hosts = append(hosts, preferred)
		used[preferred] = true
	}
	for len(hosts) < fs.cfg.Replication {
		h := fs.nextPos % n
		fs.nextPos++
		if used[h] {
			continue
		}
		hosts = append(hosts, h)
		used[h] = true
	}
	return hosts
}

// Writer writes a file block by block.
//
// It stages the current partial block in one buffer that grows toward
// BlockSize in 8× steps (so a tiny file never allocates a whole block, and
// filling a block allocates ~1.14 blocks in total) and is reused from
// length 0 after every flushBlock. flushBlock is synchronous — the replica
// writes and the CRC are done when it returns — so reuse never races a
// reader of the old contents.
type Writer struct {
	fs        *FileSystem
	path      string
	preferred int
	buf       []byte
	closed    bool
	err       error
}

// minBlockBuf is the smallest staging buffer a Writer allocates.
const minBlockBuf = 4 << 10

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("hdfs: write after close")
	}
	n := len(p)
	bs := int(w.fs.cfg.BlockSize)
	for len(p) > 0 {
		c := min(bs-len(w.buf), len(p))
		w.grow(len(w.buf)+c, bs)
		w.buf = append(w.buf, p[:c]...)
		p = p[c:]
		if len(w.buf) < bs {
			break
		}
		if err := w.flushBlock(w.buf); err != nil {
			w.err = err
			return 0, err
		}
		w.buf = w.buf[:0]
	}
	return n, nil
}

// grow makes the staging buffer hold need bytes (need <= bs). Capacities
// are bs/8^j, the smallest such at least need (and at least minBlockBuf),
// so the last step lands on exactly bs.
func (w *Writer) grow(need, bs int) {
	if need <= cap(w.buf) {
		return
	}
	c := bs
	for c/8 >= need && c/8 >= minBlockBuf {
		c /= 8
	}
	nb := make([]byte, len(w.buf), c)
	copy(nb, w.buf)
	w.buf = nb
}

func (w *Writer) flushBlock(data []byte) error {
	fs := w.fs
	fs.mu.Lock()
	id := fs.nextBlk
	fs.nextBlk++
	hosts := fs.pickHosts(w.preferred)
	fs.mu.Unlock()
	for _, h := range hosts {
		f, err := fs.nodes[h].Create(blockFile(id))
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	crcs := chunkCRCs(data)
	fs.mu.Lock()
	fm := fs.files[w.path]
	fm.blocks = append(fm.blocks, blockMeta{
		id:     id,
		length: int64(len(data)),
		crcs:   crcs,
		hosts:  hosts,
	})
	fm.size += int64(len(data))
	fs.mu.Unlock()
	return nil
}

// Close flushes the final partial block and seals the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		if err := w.flushBlock(w.buf); err != nil {
			w.err = err
			return err
		}
	}
	w.buf = nil
	return nil
}

// BlockLocation describes one block of a file for scheduling.
type BlockLocation struct {
	Index  int
	Offset int64
	Length int64
	Hosts  []int
}

// Locations returns the block layout of a file.
func (fs *FileSystem) Locations(path string) ([]BlockLocation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]BlockLocation, len(fm.blocks))
	var off int64
	for i, b := range fm.blocks {
		out[i] = BlockLocation{
			Index:  i,
			Offset: off,
			Length: b.length,
			Hosts:  append([]int(nil), b.hosts...),
		}
		off += b.length
	}
	return out, nil
}

// ReadBlock reads block idx of path from the perspective of datanode
// reader. If reader holds a replica the read is local; otherwise the bytes
// are charged to the configured network link. The second result reports
// whether the read was local.
func (fs *FileSystem) ReadBlock(path string, idx int, reader int) ([]byte, bool, error) {
	return fs.readRange(path, idx, reader, 0, -1)
}

// readRange is ReadBlock for the n bytes at offset off of the block (n < 0:
// up to the block's end). It reads and verifies only the checksum chunks
// that cover the range, and a remote read charges the link for those.
func (fs *FileSystem) readRange(path string, idx, reader int, off, n int64) ([]byte, bool, error) {
	fs.mu.Lock()
	fm, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, false, ErrNotFound
	}
	if idx < 0 || idx >= len(fm.blocks) {
		fs.mu.Unlock()
		return nil, false, fmt.Errorf("hdfs: block %d of %d", idx, len(fm.blocks))
	}
	b := fm.blocks[idx]
	fs.mu.Unlock()
	if n < 0 {
		n = b.length - off
	}
	if off < 0 || n < 0 || off+n > b.length {
		return nil, false, fmt.Errorf("hdfs: range [%d,%d) of block %d, length %d", off, off+n, idx, b.length)
	}

	data, src, read, err := fs.readChunks(b, reader, off, n)
	if err != nil {
		return nil, false, err
	}
	local := src == reader
	if !local && fs.cfg.Link != nil {
		fs.cfg.Link.Transfer(read, 64, 1)
	}
	return data, local, nil
}

// Open returns a sequential reader over the whole file, reading each block
// from the perspective of datanode reader (use -1 for "always remote").
func (fs *FileSystem) Open(path string, reader int) (*FileReader, error) {
	fs.mu.Lock()
	_, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return &FileReader{fs: fs, path: path, reader: reader}, nil
}

// FileReader reads a file block by block.
type FileReader struct {
	fs     *FileSystem
	path   string
	reader int
	idx    int
	cur    []byte
}

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		locs, err := r.fs.Locations(r.path)
		if err != nil {
			return 0, err
		}
		if r.idx >= len(locs) {
			return 0, io.EOF
		}
		data, _, err := r.fs.ReadBlock(r.path, r.idx, r.reader)
		if err != nil {
			return 0, err
		}
		r.idx++
		r.cur = data
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// ReadAll reads an entire file.
func (fs *FileSystem) ReadAll(path string, reader int) ([]byte, error) {
	r, err := fs.Open(path, reader)
	if err != nil {
		return nil, err
	}
	sz, _ := fs.Size(path)
	buf := make([]byte, 0, sz)
	tmp := make([]byte, 256<<10)
	for {
		n, err := r.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// WriteFile creates path with the given contents from preferredHost.
func (fs *FileSystem) WriteFile(path string, data []byte, preferredHost int) error {
	w, err := fs.Create(path, preferredHost)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}
