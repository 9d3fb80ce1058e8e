package hdfs

import (
	"bytes"
	"fmt"
	"io"
)

// Split is a unit of input for one O (map) task: one block of one file,
// plus the hosts where it is local.
type Split struct {
	Path   string
	Block  BlockLocation
	Length int64
}

// Splits returns one split per block for each path, in path order. This is
// the paper's "utility function ... to locally load data from HDFS for O
// tasks by their ranks and the communicator size".
func (fs *FileSystem) Splits(paths ...string) ([]Split, error) {
	var out []Split
	for _, p := range paths {
		locs, err := fs.Locations(p)
		if err != nil {
			return nil, fmt.Errorf("splits of %s: %w", p, err)
		}
		for _, l := range locs {
			out = append(out, Split{Path: p, Block: l, Length: l.Length})
		}
	}
	return out, nil
}

// SplitsForRank partitions splits across size tasks and returns rank's
// share (round-robin, so every rank gets work even with few splits).
func SplitsForRank(splits []Split, rank, size int) []Split {
	var out []Split
	for i := rank; i < len(splits); i += size {
		out = append(out, splits[i])
	}
	return out
}

// blockStream reads a file sequentially from the start of one block:
// that block whole, then one checksum chunk at a time, so a split whose
// last line runs past its block reads the following blocks only as far as
// that line reaches.
type blockStream struct {
	fs     *FileSystem
	path   string
	reader int
	locs   []BlockLocation
	start  int   // the block read whole
	idx    int   // block being read
	off    int64 // next offset to read in block idx
	cur    []byte
}

func newBlockStream(fs *FileSystem, path string, startBlock, reader int) (*blockStream, error) {
	locs, err := fs.Locations(path)
	if err != nil {
		return nil, err
	}
	return &blockStream{fs: fs, path: path, reader: reader, locs: locs, start: startBlock, idx: startBlock}, nil
}

// fill loads the next block or chunk; returns io.EOF at the end of the
// file.
func (b *blockStream) fill() error {
	if b.idx < len(b.locs) && b.off == b.locs[b.idx].Length {
		b.idx, b.off = b.idx+1, 0
	}
	if b.idx >= len(b.locs) {
		return io.EOF
	}
	n := b.locs[b.idx].Length - b.off
	if b.idx > b.start {
		n = min(n, bytesPerChecksum)
	}
	data, _, err := b.fs.readRange(b.path, b.idx, b.reader, b.off, n)
	if err != nil {
		return err
	}
	b.off += n
	b.cur = data
	return nil
}

// readLine returns the next line (without its newline) and the number of
// bytes consumed (including the newline, if present). io.EOF means the
// stream is exhausted with no pending bytes.
func (b *blockStream) readLine() ([]byte, int64, error) {
	var line []byte
	var consumed int64
	for {
		if len(b.cur) == 0 {
			if err := b.fill(); err == io.EOF {
				if consumed == 0 {
					return nil, 0, io.EOF
				}
				return line, consumed, nil
			} else if err != nil {
				return nil, 0, err
			}
			continue
		}
		if nl := bytes.IndexByte(b.cur, '\n'); nl >= 0 {
			line = append(line, b.cur[:nl]...)
			consumed += int64(nl + 1)
			b.cur = b.cur[nl+1:]
			return line, consumed, nil
		}
		line = append(line, b.cur...)
		consumed += int64(len(b.cur))
		b.cur = nil
	}
}

// ReadLinesInSplit iterates over the newline-terminated records belonging
// to a split, following Hadoop's LineRecordReader convention exactly: a
// split that does not start at file offset 0 first discards one line (it
// belongs to the previous split), and lines are then read while their start
// position is <= the split's end — so a line crossing (or starting exactly
// at) the split boundary belongs to this split and is read on into the
// following blocks as needed. Every line in the file is delivered to
// exactly one split.
func (fs *FileSystem) ReadLinesInSplit(s Split, reader int, fn func(line []byte) error) error {
	st, err := newBlockStream(fs, s.Path, s.Block.Index, reader)
	if err != nil {
		return err
	}
	pos := s.Block.Offset
	end := s.Block.Offset + s.Block.Length
	if pos > 0 {
		_, n, err := st.readLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		pos += n
	}
	for pos <= end {
		line, n, err := st.readLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(line); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// ReadRecordsInSplit iterates fixed-size records (e.g. TeraSort's 100-byte
// rows) in a split. Records are assumed globally aligned to recSize from
// file offset 0; the records belonging to the split are those whose first
// byte lies within it.
func (fs *FileSystem) ReadRecordsInSplit(s Split, recSize int, reader int, fn func(rec []byte) error) error {
	if recSize <= 0 {
		return fmt.Errorf("hdfs: record size %d", recSize)
	}
	data, _, err := fs.ReadBlock(s.Path, s.Block.Index, reader)
	if err != nil {
		return err
	}
	// First record starting at or after the split's offset.
	start := int64(0)
	if rem := s.Block.Offset % int64(recSize); rem != 0 {
		start = int64(recSize) - rem
	}
	pos := int(start)
	for pos+recSize <= len(data) {
		if err := fn(data[pos : pos+recSize]); err != nil {
			return err
		}
		pos += recSize
	}
	if pos >= len(data) {
		return nil
	}
	// The record crosses into the following blocks: read just its tail.
	rec := append([]byte(nil), data[pos:]...)
	locs, err := fs.Locations(s.Path)
	if err != nil {
		return err
	}
	for next := s.Block.Index + 1; next < len(locs) && len(rec) < recSize; next++ {
		need := min(int64(recSize-len(rec)), locs[next].Length)
		nd, _, err := fs.readRange(s.Path, next, reader, 0, need)
		if err != nil {
			return err
		}
		rec = append(rec, nd...)
	}
	if len(rec) == recSize {
		return fn(rec)
	}
	if len(rec) > 0 && len(rec) < recSize {
		return io.ErrUnexpectedEOF
	}
	return nil
}
