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

// spillFiles are the open spill runs a partition's iterator reads. The
// consumer closes them once done with the iterator, drained or not, or
// the descriptors (and the disk space of the unlinked runs) outlive the
// job.
type spillFiles []io.Closer

// Close closes every file.
func (fs spillFiles) Close() {
	for _, f := range fs {
		f.Close()
	}
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

// iteratorOverRunsDisk additionally merges spilled disk runs, each read
// back through the same windowed cursor as a memory run, and returns the
// files the caller must close.
func (rt *Runtime) iteratorOverRunsDisk(memRuns [][]byte, diskRuns []string, procIdx int) (kv.Iterator, spillFiles, error) {
	files := make(spillFiles, 0, len(diskRuns))
	extra := make([]kv.Iterator, 0, len(diskRuns))
	for _, rel := range diskRuns {
		f, err := rt.job.SpillDisks[procIdx].Open(rel)
		if err != nil {
			files.Close()
			return nil, nil, err
		}
		files = append(files, f)
		extra = append(extra, kv.NewFramedRunReader(countingReader{r: f, n: &rt.ctrs.spillReadBytes}))
	}
	it, err := rt.iteratorOverRuns(memRuns, extra)
	if err != nil {
		files.Close()
		return nil, nil, err
	}
	return it, files, nil
}
