package core

import (
	"io"
	"sync/atomic"

	"datampi/internal/kv"
)

// emptyIterator yields nothing (round-0 reverse input in Iteration mode).
type emptyIterator struct{}

func (emptyIterator) Next() (kv.Record, error) { return kv.Record{}, io.EOF }

// chainIterator concatenates runs (unsorted modes).
type chainIterator struct {
	its []kv.Iterator
	i   int
}

func (c *chainIterator) Next() (kv.Record, error) {
	for c.i < len(c.its) {
		rec, err := c.its[c.i].Next()
		if err == io.EOF {
			c.i++
			continue
		}
		return rec, err
	}
	return kv.Record{}, io.EOF
}

// closingIterator closes resources once the underlying iterator is
// exhausted (or errors).
type closingIterator struct {
	it      kv.Iterator
	closers []io.Closer
	closed  bool
}

func (c *closingIterator) Next() (kv.Record, error) {
	rec, err := c.it.Next()
	if err != nil && !c.closed {
		c.closed = true
		for _, cl := range c.closers {
			cl.Close()
		}
	}
	return rec, err
}

// iteratorOverRuns builds an iterator over in-memory runs: a k-way merge in
// sorted modes, plain concatenation otherwise. Each run is one lazy
// cursor (kv.FramedRun), so consuming a partition allocates nothing
// beyond the merge tree; records alias the run buffers, which the mpi
// recv ownership contract hands over for good.
func (rt *Runtime) iteratorOverRuns(memRuns [][]byte, extra []kv.Iterator) (kv.Iterator, error) {
	its := make([]kv.Iterator, 0, len(memRuns)+len(extra))
	for _, run := range memRuns {
		its = append(its, kv.NewFramedRun(run))
	}
	its = append(its, extra...)
	if rt.job.Conf.sorted() {
		return kv.NewMerger(rt.job.Conf.Compare, its...)
	}
	return &chainIterator{its: its}, nil
}

// countingReader tallies bytes read into an atomic counter (spill-read
// accounting for RuntimeCounters).
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// countingWriter tallies bytes written (spill-compaction accounting).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// iteratorOverRunsDisk additionally merges spilled disk runs, closing the
// files when the iterator is drained.
func (rt *Runtime) iteratorOverRunsDisk(memRuns [][]byte, diskRuns []string, procIdx int) (kv.Iterator, error) {
	var extra []kv.Iterator
	var closers []io.Closer
	for _, rel := range diskRuns {
		f, err := rt.job.SpillDisks[procIdx].Open(rel)
		if err != nil {
			for _, c := range closers {
				c.Close()
			}
			return nil, err
		}
		closers = append(closers, f)
		cr := countingReader{r: f, n: &rt.ctrs.spillReadBytes}
		extra = append(extra, kv.ReaderIterator{R: kv.NewReader(cr)})
	}
	it, err := rt.iteratorOverRuns(memRuns, extra)
	if err != nil {
		for _, c := range closers {
			c.Close()
		}
		return nil, err
	}
	if len(closers) == 0 {
		return it, nil
	}
	return &closingIterator{it: it, closers: closers}, nil
}
