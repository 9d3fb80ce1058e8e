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

// splitStream reads a file forward from an offset in a split's block,
// through one window buffer that it reuses: the split's own block in
// packet-sized windows, and any later block only as far as the caller
// asks — the tail of the split's last record or line. Windows start on
// chunk boundaries, so each one is verified chunk by chunk and fails over
// on its own (see blockReader).
type splitStream struct {
	fs     *FileSystem
	reader int
	blocks []blockMeta
	start  int   // the split's block
	idx    int   // block being read
	off    int64 // next offset to read in block idx
	br     *blockReader
	win    []byte
	cur    []byte // the unread part of the last window
	line   []byte // scratch for a line that straddles windows
}

func (fs *FileSystem) newSplitStream(s Split, off int64, reader int) (*splitStream, error) {
	blocks, err := fs.blocks(s.Path)
	if err != nil {
		return nil, err
	}
	if s.Block.Index < 0 || s.Block.Index >= len(blocks) {
		return nil, fmt.Errorf("hdfs: block %d of %d", s.Block.Index, len(blocks))
	}
	return &splitStream{
		fs: fs, reader: reader, blocks: blocks,
		start: s.Block.Index, idx: s.Block.Index, off: off,
		win: make([]byte, min(int64(packet), fs.cfg.BlockSize)),
	}, nil
}

// fill reads the next window into cur; returns io.EOF at the end of the
// file. Past the split's block it reads only the chunks that hold the next
// want bytes.
func (st *splitStream) fill(want int) error {
	for st.idx < len(st.blocks) && st.off == st.blocks[st.idx].length {
		st.closeBlock()
		st.idx, st.off = st.idx+1, 0
	}
	if st.idx >= len(st.blocks) {
		return io.EOF
	}
	b := st.blocks[st.idx]
	if st.br == nil {
		st.br = st.fs.openBlock(b, st.reader)
	}
	lo := st.off / int64(chunk) * int64(chunk)
	n := int64(len(st.win))
	if st.idx > st.start {
		n = min(n, (st.off-lo+int64(want)+int64(chunk)-1)/int64(chunk)*int64(chunk))
	}
	hi := min(lo+n, b.length)
	if err := st.br.read(st.win[:hi-lo], lo); err != nil {
		return err
	}
	st.cur = st.win[st.off-lo : hi-lo]
	st.off = hi
	return nil
}

func (st *splitStream) closeBlock() {
	if st.br != nil {
		st.br.close()
		st.br = nil
	}
}

// readLine returns the next line (without its newline) and the number of
// bytes consumed (including the newline, if present). io.EOF means the
// stream is exhausted with no pending bytes. The line is a slice of the
// window, or of the scratch buffer if it straddles windows; it is valid
// until the next call. With keep false the line is only skipped.
func (st *splitStream) readLine(keep bool) ([]byte, int64, error) {
	st.line = st.line[:0]
	var consumed int64
	for {
		if len(st.cur) == 0 {
			if err := st.fill(chunk); err == io.EOF {
				if consumed == 0 {
					return nil, 0, io.EOF
				}
				return st.line, consumed, nil
			} else if err != nil {
				return nil, 0, err
			}
			continue
		}
		nl := bytes.IndexByte(st.cur, '\n')
		if nl >= 0 && consumed == 0 {
			line := st.cur[:nl]
			st.cur = st.cur[nl+1:]
			return line, int64(nl + 1), nil
		}
		part := st.cur
		if nl >= 0 {
			part = st.cur[:nl]
		}
		if keep {
			st.line = append(st.line, part...)
		}
		consumed += int64(len(part))
		st.cur = st.cur[len(part):]
		if nl >= 0 {
			st.cur = st.cur[1:]
			return st.line, consumed + 1, nil
		}
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
//
// The split is read through one reused window of about 256 KiB. The line
// passed to fn is valid only until fn returns, as with bufio.Scanner: fn
// must copy what it keeps.
func (fs *FileSystem) ReadLinesInSplit(s Split, reader int, fn func(line []byte) error) error {
	st, err := fs.newSplitStream(s, 0, reader)
	if err != nil {
		return err
	}
	defer st.closeBlock()
	pos := s.Block.Offset
	end := s.Block.Offset + s.Block.Length
	if pos > 0 {
		_, n, err := st.readLine(false)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		pos += n
	}
	for pos <= end {
		line, n, err := st.readLine(true)
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
//
// The split is read through one reused window of about 256 KiB. The record
// passed to fn is valid only until fn returns, as with bufio.Scanner: fn
// must copy what it keeps.
func (fs *FileSystem) ReadRecordsInSplit(s Split, recSize int, reader int, fn func(rec []byte) error) error {
	if recSize <= 0 {
		return fmt.Errorf("hdfs: record size %d", recSize)
	}
	// First record starting at or after the split's offset.
	start := int64(0)
	if rem := s.Block.Offset % int64(recSize); rem != 0 {
		start = int64(recSize) - rem
	}
	if start >= s.Block.Length {
		return nil
	}
	st, err := fs.newSplitStream(s, start, reader)
	if err != nil {
		return err
	}
	defer st.closeBlock()
	var rec []byte // scratch for a record that straddles windows
	for n := (s.Block.Length - start + int64(recSize) - 1) / int64(recSize); n > 0; n-- {
		if len(st.cur) == 0 {
			if err := st.fill(recSize); err != nil {
				return unexpectedEOF(err)
			}
		}
		if len(st.cur) >= recSize {
			if err := fn(st.cur[:recSize]); err != nil {
				return err
			}
			st.cur = st.cur[recSize:]
			continue
		}
		// The record straddles the window's end: assemble it.
		rec = append(rec[:0], st.cur...)
		for len(rec) < recSize {
			if err := st.fill(recSize - len(rec)); err != nil {
				return unexpectedEOF(err)
			}
			c := min(recSize-len(rec), len(st.cur))
			rec = append(rec, st.cur[:c]...)
			st.cur = st.cur[c:]
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// unexpectedEOF reports the end of the file inside a record as
// io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
