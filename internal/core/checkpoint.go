package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Key-value based library-level checkpoint (§IV-E). Because the library
// sees every record a task emits through MPI_D_SEND, it knows exactly what
// to checkpoint and, on recovery, how many records each task has already
// processed. Each task checkpoints separately after rounds of data
// exchanging: sealed (sorted/combined) buffers are appended to a chunk
// file, which is atomically renamed on completion so only "successfully
// generated checkpoints" are visible. On restart the runtime reloads every
// complete chunk — re-injecting the data into the shuffle without
// recomputation — and tasks skip that many input records.
//
// The transmit path hands whole checkpoint rounds to a background
// committer goroutine through a depth-one queue: one batch can be queued
// while another is being written, so the shuffle pipeline only blocks on
// disk when both buffers are in flight.

// cpChunk is one complete checkpoint chunk on disk. The file holds a
// sequence of [u32 len | payload] entries (payload = partition-framed
// record bytes) followed by a footer with the record count. records and
// frames (per partition) are filled only by a scan that counts the chunk.
type cpChunk struct {
	task    int
	seq     int
	path    string
	records int64
	frames  map[int]int64
}

func cpChunkName(task, seq int) string {
	return fmt.Sprintf("cp_t%06d_s%06d.done", task, seq)
}

// cpWriter accumulates one task's in-progress chunk.
type cpWriter struct {
	dir     string
	task    int
	seq     int
	f       *os.File
	tmp     string
	records int64
	err     error

	// commitHook, when set, runs between the tmp file's final write and
	// the atomic rename — the torn-commit window. A hook error leaves the
	// .tmp file on disk exactly as a crash at that point would.
	commitHook func(task, seq int) error
}

func newCPWriter(dir string, task int) *cpWriter {
	return &cpWriter{dir: dir, task: task}
}

// discard closes and removes the in-progress tmp file after a write
// failure, so a failed chunk never leaks an open handle or a stray .tmp.
func (w *cpWriter) discard() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.tmp != "" {
		os.Remove(w.tmp)
		w.tmp = ""
	}
	w.records = 0
}

// append adds one sealed payload (with partition header) to the chunk.
func (w *cpWriter) append(payload []byte, records int64) error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			w.err = err
			return err
		}
		w.tmp = filepath.Join(w.dir, fmt.Sprintf("cp_t%06d_s%06d.tmp", w.task, w.seq))
		f, err := os.Create(w.tmp)
		if err != nil {
			w.err = err
			w.tmp = ""
			return err
		}
		w.f = f
	}
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(payload)))
	if _, err := w.f.Write(l[:]); err != nil {
		w.err = err
		w.discard()
		return err
	}
	if _, err := w.f.Write(payload); err != nil {
		w.err = err
		w.discard()
		return err
	}
	w.records += records
	return nil
}

// seal completes the current chunk (fsync + atomic rename); a new chunk
// begins on the next append. Sealing an empty chunk is a no-op.
func (w *cpWriter) seal() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	var foot [12]byte
	binary.BigEndian.PutUint32(foot[0:], 0) // zero length marks the footer
	binary.BigEndian.PutUint64(foot[4:], uint64(w.records))
	if _, err := w.f.Write(foot[:]); err != nil {
		w.err = err
		w.discard()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		w.discard()
		return err
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		w.f = nil
		w.discard()
		return err
	}
	w.f = nil
	if w.commitHook != nil {
		if err := w.commitHook(w.task, w.seq); err != nil {
			// Simulated crash inside the commit window: the fully
			// written, fsynced .tmp stays on disk, un-renamed, exactly
			// as SIGKILL between write and rename would leave it.
			w.err = err
			w.tmp = ""
			w.records = 0
			return err
		}
	}
	final := filepath.Join(w.dir, cpChunkName(w.task, w.seq))
	if err := os.Rename(w.tmp, final); err != nil {
		w.err = err
		w.discard()
		return err
	}
	w.tmp = ""
	w.records = 0
	w.seq++
	return nil
}

// abort discards an in-progress chunk.
func (w *cpWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
		os.Remove(w.tmp)
		w.tmp = ""
	}
}

// listChunks returns the complete checkpoint chunks in dir, sorted by
// (task, seq).
func listChunks(dir string) ([]cpChunk, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []cpChunk
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "cp_t") || !strings.HasSuffix(name, ".done") {
			continue
		}
		var task, seq int
		base := strings.TrimSuffix(strings.TrimPrefix(name, "cp_t"), ".done")
		parts := strings.SplitN(base, "_s", 2)
		if len(parts) != 2 {
			continue
		}
		if task, err = strconv.Atoi(parts[0]); err != nil {
			continue
		}
		if seq, err = strconv.Atoi(parts[1]); err != nil {
			continue
		}
		out = append(out, cpChunk{task: task, seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].task != out[j].task {
			return out[i].task < out[j].task
		}
		return out[i].seq < out[j].seq
	})
	return out, nil
}

// chunkRecordCount validates a chunk's footer and returns its record count.
func chunkRecordCount(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() < 12 {
		return 0, errors.New("core: checkpoint too small")
	}
	var foot [12]byte
	if _, err := f.ReadAt(foot[:], st.Size()-12); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(foot[0:]) != 0 {
		return 0, errors.New("core: checkpoint footer missing")
	}
	return int64(binary.BigEndian.Uint64(foot[4:])), nil
}

// scanChunks lists the committed chunks in dir and reads, for those whose
// task counted selects, the record count and (with frames) the frames per
// partition, so a partial restart's re-run can label its frames as the
// lost incarnation did. A counted chunk whose footer does not validate is
// incomplete and left out.
func scanChunks(dir string, counted func(task int) bool, frames bool) ([]cpChunk, error) {
	chunks, err := listChunks(dir)
	if err != nil {
		return nil, err
	}
	out := chunks[:0]
	for _, ch := range chunks {
		if counted(ch.task) {
			if ch.records, err = chunkRecordCount(ch.path); err != nil {
				continue
			}
			if frames {
				ch.frames = map[int]int64{}
				if _, err := readChunk(ch.path, func(payload []byte) error {
					partition, _, _, _, _, _, err := decodePayload(payload)
					ch.frames[partition]++
					return err
				}); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, ch)
	}
	return out, nil
}

// maxChunkPayload bounds a single checkpoint entry's claimed length, so a
// corrupt or hostile chunk header cannot balloon memory before the read
// fails. Real payloads are SPL-sized (tens of KB).
const maxChunkPayload = 1 << 26

// readChunk streams a chunk's payloads to fn and returns the footer's
// record count. A malformed chunk returns an error (callers treat it as
// absent).
func readChunk(path string, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := readChunkFrom(f, fn)
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return n, nil
}

// readChunkFrom parses the chunk stream format from r: a sequence of
// [u32 len | payload] entries terminated by a [u32 0 | u64 records]
// footer. Allocation per entry is bounded by maxChunkPayload regardless
// of what the header claims.
func readChunkFrom(r io.Reader, fn func(payload []byte) error) (int64, error) {
	for {
		var l [4]byte
		if _, err := io.ReadFull(r, l[:]); err != nil {
			return 0, fmt.Errorf("truncated checkpoint: %w", err)
		}
		n := binary.BigEndian.Uint32(l[:])
		if n == 0 { // footer
			var cnt [8]byte
			if _, err := io.ReadFull(r, cnt[:]); err != nil {
				return 0, fmt.Errorf("truncated checkpoint footer: %w", err)
			}
			records := binary.BigEndian.Uint64(cnt[:])
			if records > math.MaxInt64 {
				return 0, fmt.Errorf("checkpoint footer claims %d records", records)
			}
			return int64(records), nil
		}
		if n > maxChunkPayload {
			return 0, fmt.Errorf("checkpoint entry claims %d bytes (max %d)", n, maxChunkPayload)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, fmt.Errorf("truncated checkpoint: %w", err)
		}
		if err := fn(payload); err != nil {
			return 0, err
		}
	}
}

// ---------------------------------------------------------------------------
// Asynchronous committer

// cpEntry is one transmitted frame queued for asynchronous checkpoint
// commit. The committer owns the frame and recycles it after writing.
type cpEntry struct {
	frame   []byte
	records int64
}

// cpBatch is one checkpoint round for one task, handed to the committer
// at a cpSeal boundary. A batch with a non-nil done channel and no task
// work is a drain barrier: the committer closes done once every batch
// queued before it has been committed.
type cpBatch struct {
	task    int
	entries []cpEntry
	done    chan struct{}
}

// cpCommitter writes checkpoint chunks on a background goroutine. Its
// queue has depth one: with one batch queued and one being written, the
// transmit path keeps two rounds in flight before it ever blocks on disk
// (double buffering). The committer is NOT part of the process waitgroup;
// quiesce closes q after the pipeline drains and then waits on done.
type cpCommitter struct {
	p    *process
	q    chan *cpBatch
	done chan struct{}
}

func newCPCommitter(p *process) *cpCommitter {
	c := &cpCommitter{p: p, q: make(chan *cpBatch, 1), done: make(chan struct{})}
	go c.run()
	return c
}

// submit hands a batch to the committer, counting a stall when both
// buffers are already in flight. On abort the batch is dropped — exactly
// the data loss a crash at that point would cause, which the reload path
// already recovers from.
func (c *cpCommitter) submit(b *cpBatch) {
	rt := c.p.rt
	select {
	case c.q <- b:
		return
	default:
	}
	rt.ctrs.cpAsyncStalls.Add(1)
	select {
	case c.q <- b:
	case <-rt.aborted:
		for _, e := range b.entries {
			putFrame(e.frame)
		}
		if b.done != nil {
			close(b.done)
		}
	}
}

// drain blocks until every batch submitted before it has been committed
// (or the run aborted).
func (c *cpCommitter) drain() {
	ch := make(chan struct{})
	c.submit(&cpBatch{task: -1, done: ch})
	select {
	case <-ch:
	case <-c.p.rt.aborted:
	}
}

func (c *cpCommitter) run() {
	defer close(c.done)
	p := c.p
	rt := p.rt
	cfg := &rt.job.Conf
	writers := map[int]*cpWriter{}
	defer func() {
		for _, w := range writers {
			w.abort()
		}
	}()
	for b := range c.q {
		if len(b.entries) == 0 {
			if b.done != nil {
				close(b.done)
			}
			continue
		}
		select {
		case <-rt.aborted:
			// Once the run has failed, commit nothing more: a batch may
			// already have been dropped in submit, and committing a later
			// round would leave a hole in the chunk sequence — reload
			// counts chunks as a contiguous prefix of the record stream.
			for _, e := range b.entries {
				putFrame(e.frame)
			}
			if b.done != nil {
				close(b.done)
			}
			continue
		default:
		}
		w := writers[b.task]
		if w == nil {
			w = newCPWriter(cfg.CheckpointDir, b.task)
			w.seq = rt.cpStartSeq(b.task)
			w.commitHook = rt.job.hooks.CheckpointCommitHook
			writers[b.task] = w
		}
		start := p.tb.Start()
		var n int64
		for _, e := range b.entries {
			err := w.append(e.frame[framePartOff:], e.records)
			putFrame(e.frame)
			if err != nil {
				p.fail(fmt.Errorf("core: async checkpoint append: %w", err))
			}
			n += e.records
		}
		err := w.seal()
		if err == nil {
			// Count before done releases a waiter that may end the run.
			rt.ctrs.cpChunks.Add(1)
			rt.ctrs.cpAsyncCommits.Add(1)
		}
		if b.done != nil {
			close(b.done)
		}
		if err != nil {
			p.fail(fmt.Errorf("core: async checkpoint commit: %w", err))
			continue
		}
		p.tb.Span(tidControl, "cp.commit.async", "checkpoint", start,
			map[string]any{"task": b.task, "records": n})
		if fa := cfg.InjectFailAfterCPRecords; fa > 0 && rt.cpDurable.Add(n) >= fa {
			rt.fail(ErrInjectedFailure)
		}
	}
}
