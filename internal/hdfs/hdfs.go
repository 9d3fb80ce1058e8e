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
//
// As in HDFS, blocks move in 256 KiB packets, and neither the write path
// nor the split readers stage a whole block. The Writer stages one packet
// and writes it to every replica as it fills; a block becomes visible
// when its last packet is written. ReadRecordsInSplit and
// ReadLinesInSplit read a split through one reused packet-sized window,
// failing over window by window, and hand fn a slice of that window that
// is valid only until fn returns. ReadBlock, ReadAll and FileReader still
// read whole blocks.
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

const (
	// bytesPerChecksum is the span one block checksum covers
	// (dfs.bytes-per-checksum).
	bytesPerChecksum = 64 << 10
	// packetSize is the unit a block moves in: the Writer stages and
	// writes one packet at a time, and a split reader reads one
	// packet-sized window at a time.
	packetSize = 4 * bytesPerChecksum
)

// chunk and packet are the checksum span and the packet size the code
// uses: bytesPerChecksum and packetSize, except that FuzzSplitReaders
// shrinks them to reach chunk, window and block edges with small inputs.
// packet is a multiple of chunk.
var chunk, packet = bytesPerChecksum, packetSize

type blockMeta struct {
	id     int64
	length int64
	crcs   []uint32 // CRC-32 of each bytesPerChecksum chunk of the block
	hosts  []int    // datanode indices holding a replica
}

// appendChunkCRCs appends the checksum of each chunk of data, which starts
// on a chunk boundary of its block.
func appendChunkCRCs(crcs []uint32, data []byte) []uint32 {
	for off := 0; off < len(data); off += chunk {
		crcs = append(crcs, crc32.ChecksumIEEE(data[off:min(off+chunk, len(data))]))
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

// Writer writes a file as a stream of packets, as the HDFS client's
// DataStreamer does. It stages at most one packet: a block's replica files
// are opened at its first packet, each full packet is checksummed and
// written to every replica, and the block's metadata is published only
// after its last packet, so a reader never sees a partial block. A write
// that covers a whole packet sends it without copying it, and bytes
// appended in place to AvailableBuffer are staged without copying them.
//
// Any failure removes the replica files of the block being written and
// poisons the Writer. A Writer that is neither closed nor failed holds its
// block's replica files open.
type Writer struct {
	fs        *FileSystem
	path      string
	preferred int
	buf       []byte // the staged part of the next packet
	closed    bool
	err       error

	// The block being written; files is nil between blocks.
	blkID  int64
	hosts  []int
	files  []*diskio.File
	blkLen int64
	crcs   []uint32
}

// minStageBuf is the staging buffer a Writer starts with, so that a tiny
// file does not allocate a whole packet.
const minStageBuf = 4 << 10

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("hdfs: write after close")
	}
	n := len(p)
	for len(p) > 0 {
		// The next packet is a whole one, or what is left of the block.
		pkt := int(min(int64(packet), w.fs.cfg.BlockSize-w.blkLen))
		if len(w.buf)+len(p) < pkt {
			w.stage(p)
			break
		}
		c := pkt - len(w.buf)
		data := p[:c]
		if len(w.buf) > 0 {
			w.stage(data)
			data = w.buf
		}
		if err := w.sendPacket(data); err != nil {
			return 0, err
		}
		w.buf = w.buf[:0]
		p = p[c:]
	}
	return n, nil
}

// AvailableBuffer returns an empty buffer over the free space of the
// staged packet, as bufio.Writer's does: a caller may append up to its
// capacity and pass the result to Write, which stages those bytes where
// they already are. Its capacity never reaches past the packet being
// staged. The buffer is valid only until the next Write.
func (w *Writer) AvailableBuffer() []byte {
	if w.err != nil || w.closed {
		return nil
	}
	pkt := int(min(int64(packet), w.fs.cfg.BlockSize-w.blkLen))
	return w.buf[len(w.buf):len(w.buf):min(pkt, cap(w.buf))]
}

// stage appends p to the staging buffer. The buffer starts at minStageBuf
// and then holds one packet (or one block, if that is smaller); it never
// grows past that. A p that AvailableBuffer's caller appended in place is
// already there, and is taken without a copy.
func (w *Writer) stage(p []byte) {
	need := len(w.buf) + len(p)
	if need <= cap(w.buf) && len(p) > 0 && &w.buf[:need][len(w.buf)] == &p[0] {
		w.buf = w.buf[:need]
		return
	}
	if need > cap(w.buf) {
		c := int(min(int64(packet), w.fs.cfg.BlockSize))
		if need <= minStageBuf {
			c = min(c, minStageBuf)
		}
		w.buf = append(make([]byte, 0, c), w.buf...)
	}
	w.buf = append(w.buf, p...)
}

// sendPacket checksums one packet and writes it to every replica of the
// current block, opening the block first if data is its first packet, and
// publishes the block once it is full. Every packet but a block's last is
// whole, so packets start on checksum-chunk boundaries.
func (w *Writer) sendPacket(data []byte) error {
	if w.files == nil {
		if err := w.openBlock(); err != nil {
			return w.abort(err)
		}
	}
	w.crcs = appendChunkCRCs(w.crcs, data)
	for _, f := range w.files {
		if _, err := f.Write(data); err != nil {
			return w.abort(err)
		}
	}
	w.blkLen += int64(len(data))
	if w.blkLen == w.fs.cfg.BlockSize {
		return w.finishBlock()
	}
	return nil
}

// openBlock allocates the next block and creates its replica files.
func (w *Writer) openBlock() error {
	fs := w.fs
	fs.mu.Lock()
	w.blkID = fs.nextBlk
	fs.nextBlk++
	w.hosts = fs.pickHosts(w.preferred)
	fs.mu.Unlock()
	w.files = make([]*diskio.File, 0, len(w.hosts))
	for _, h := range w.hosts {
		f, err := fs.nodes[h].Create(blockFile(w.blkID))
		if err != nil {
			return err
		}
		w.files = append(w.files, f)
	}
	return nil
}

// finishBlock closes the block's replica files and publishes the block.
func (w *Writer) finishBlock() error {
	for _, f := range w.files {
		if err := f.Close(); err != nil {
			return w.abort(err)
		}
	}
	fs := w.fs
	fs.mu.Lock()
	fm := fs.files[w.path]
	if fm != nil {
		fm.blocks = append(fm.blocks, blockMeta{id: w.blkID, length: w.blkLen, crcs: w.crcs, hosts: w.hosts})
		fm.size += w.blkLen
	}
	fs.mu.Unlock()
	if fm == nil {
		return w.abort(fmt.Errorf("hdfs: %s deleted while being written: %w", w.path, ErrNotFound))
	}
	w.files, w.crcs, w.blkLen = nil, nil, 0
	return nil
}

// abort closes and removes the replica files of the block being written,
// and makes err the Writer's sticky error.
func (w *Writer) abort(err error) error {
	for _, f := range w.files {
		f.Close() // a second Close of a file finishBlock closed only errs
	}
	for _, h := range w.hosts {
		_ = w.fs.nodes[h].Remove(blockFile(w.blkID))
	}
	w.files, w.crcs, w.buf = nil, nil, nil
	w.err = err
	return err
}

// Close sends the final partial packet, publishes the last block and seals
// the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		if err := w.sendPacket(w.buf); err != nil {
			return err
		}
	}
	if w.files != nil {
		if err := w.finishBlock(); err != nil {
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
	blocks, err := fs.blocks(path)
	if err != nil {
		return nil, false, err
	}
	if idx < 0 || idx >= len(blocks) {
		return nil, false, fmt.Errorf("hdfs: block %d of %d", idx, len(blocks))
	}
	b := blocks[idx]
	if n < 0 {
		n = b.length - off
	}
	if off < 0 || n < 0 || off+n > b.length {
		return nil, false, fmt.Errorf("hdfs: range [%d,%d) of block %d, length %d", off, off+n, idx, b.length)
	}
	lo := off / int64(chunk) * int64(chunk)
	hi := min((off+n+int64(chunk)-1)/int64(chunk)*int64(chunk), b.length)
	buf := make([]byte, hi-lo)
	br := fs.openBlock(b, reader)
	err = br.read(buf, lo)
	local := br.remote == 0
	br.close()
	if err != nil {
		return nil, false, err
	}
	return buf[off-lo : off-lo+n], local, nil
}

// blocks returns the blocks of path. The slice is the namenode's own; its
// elements never change, so it needs no copy.
func (fs *FileSystem) blocks(path string) ([]blockMeta, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		return nil, ErrNotFound
	}
	return fm.blocks, nil
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
