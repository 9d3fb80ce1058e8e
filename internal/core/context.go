package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"datampi/internal/kv"
)

// CommID names one of the two built-in communicators of the bipartite
// model (§III-A).
type CommID int

// The built-in communicators COMM_BIPARTITE_O and COMM_BIPARTITE_A.
const (
	CommO CommID = iota
	CommA
)

// ErrNotReceiver is returned by Recv on a context with no receivable data
// direction (e.g. an O task outside Iteration mode).
var ErrNotReceiver = errors.New("core: context has no receive direction")

// Context is a task's handle on the DataMPI library: the three pairs of
// extended library functions of Table I. An O task sends; an A task
// receives; in Iteration mode both directions are live (A sends feedback
// that the same O task receives next round).
type Context struct {
	proc *process
	job  *Job
	task int
	isO  bool
	// round is the current Iteration round (0 in other modes).
	round int

	spl      *spl
	skip     int64 // records Send drops because a checkpoint covers them
	cpTotal  int64 // records covered by reloaded checkpoints
	sinceCP  int64 // records emitted since the last checkpoint round
	sent     int64 // records sent, cumulative; runUser adds them to Runtime.sent
	received int64
	// lastFlush is the last time-based SPL drain (raw Streaming mode).
	lastFlush time.Time
	// wmSeal marks a StreamJob source: its SPL seals along its watermark
	// (SourceContext.broadcastWatermark), never by the wall clock.
	wmSeal bool

	// A-side batch iterator (sorted/unsorted modes) or stream channel.
	it       kv.Iterator
	grouper  *kv.Grouper
	streamCh <-chan kv.Record
	// streamPart is the partition behind streamCh, for credit accounting.
	streamPart int

	// kbuf/vbuf are Send's codec scratch buffers, reused across calls.
	kbuf, vbuf []byte

	// blobSeq is the next SendValue ordinal; blob ids are (task, ordinal)
	// so a deterministic re-run after a restart reproduces the same ids.
	blobSeq uint32

	// counters holds AddCounter deltas not yet reported to mpidrun.
	counters map[string]int64

	// Local is scratch state that survives across Iteration rounds.
	Local any
}

// AddCounter increments a named user counter (the Hadoop job-counters
// analogue); mpidrun aggregates every task's counters into
// Result.Counters.
func (c *Context) AddCounter(name string, delta int64) {
	if c.counters == nil {
		c.counters = map[string]int64{}
	}
	c.counters[name] += delta
}

// takeCounters drains the pending counter deltas for event reporting.
func (c *Context) takeCounters() map[string]int64 {
	out := c.counters
	c.counters = nil
	return out
}

// Rank implements MPI_D_Comm_rank for the task's own communicator: the
// task's rank within COMM_BIPARTITE_O or COMM_BIPARTITE_A.
func (c *Context) Rank() int { return c.task }

// CommSize implements MPI_D_Comm_size: the total number of tasks in the
// given communicator.
func (c *Context) CommSize(id CommID) int {
	if id == CommO {
		return c.job.NumO
	}
	return c.job.NumA
}

// IsO reports whether this context belongs to COMM_BIPARTITE_O.
func (c *Context) IsO() bool { return c.isO }

// Proc returns the index of the DataMPI process hosting this task — which,
// with the default one-process-per-node layout, is also the datanode index
// for locality-aware input loading.
func (c *Context) Proc() int { return c.proc.idx }

// Round returns the current Iteration-mode round (0-based).
func (c *Context) Round() int { return c.round }

// Mode returns the job's communication mode.
func (c *Context) Mode() Mode { return c.job.Mode }

// CheckpointedRecords reports how many of this task's emitted records are
// already covered by reloaded checkpoints. If the task does nothing, Send
// silently drops that many leading records (they were re-injected from the
// checkpoint); input loaders that want to avoid recomputation should call
// TakeCheckpointSkip instead and skip that many input records themselves.
func (c *Context) CheckpointedRecords() int64 { return c.cpTotal }

// TakeCheckpointSkip transfers the skip obligation to the caller: it
// returns the number of leading records covered by checkpoints and clears
// the internal Send-side drop counter, so the task must NOT emit those
// records itself. Calling it twice returns 0 the second time.
func (c *Context) TakeCheckpointSkip() int64 {
	n := c.skip
	c.skip = 0
	return n
}

// numDest returns the destination partition count for this context's sends.
func (c *Context) numDest() int {
	if c.isO {
		return c.job.NumA
	}
	return c.job.NumO
}

// Send implements MPI_D_SEND: emit one key-value pair. No destination is
// given — the library partitions and routes the pair itself (the Dynamic
// feature of §II-A). O tasks send toward COMM_BIPARTITE_A; in Iteration
// mode, A tasks send feedback toward COMM_BIPARTITE_O.
//
// The codecs encode into per-context scratch buffers: SendRecord copies
// the bytes into the SPL before returning, so the scratch can be reused
// on the next call without a fresh allocation per pair.
func (c *Context) Send(key, value any) error {
	kb, err := c.job.Conf.KeyCodec.Encode(c.kbuf[:0], key)
	if err != nil {
		return fmt.Errorf("core: encoding key: %w", err)
	}
	c.kbuf = kb
	vb, err := c.job.Conf.ValueCodec.Encode(c.vbuf[:0], value)
	if err != nil {
		return fmt.Errorf("core: encoding value: %w", err)
	}
	c.vbuf = vb
	return c.SendRecord(kv.Record{Key: kb, Value: vb})
}

// SendRecord is Send for already-serialized pairs (the hot path).
func (c *Context) SendRecord(rec kv.Record) error {
	if !c.isO && c.job.Mode != Iteration {
		return errors.New("core: A tasks can only send in Iteration mode")
	}
	p := c.job.Conf.Partition(rec.Key, rec.Value, c.numDest())
	if p < 0 || p >= c.numDest() {
		return fmt.Errorf("core: partitioner returned %d of %d", p, c.numDest())
	}
	return c.sendRecordTo(p, rec)
}

// sendRecordTo is the tail of SendRecord past partitioning, and the path
// watermark broadcasts take: every destination partition must observe a
// source's watermark, so their routing bypasses the partitioner while
// still sharing the skip, counting, SPL and checkpoint bookkeeping — a
// deterministic re-run after a restart reproduces the identical emission
// sequence either way.
func (c *Context) sendRecordTo(p int, rec kv.Record) error {
	if c.skip > 0 {
		c.skip--
		return nil
	}
	if err := c.proc.rt.countSend(); err != nil {
		return err
	}
	c.sent++
	if c.job.Mode == Streaming && c.isO {
		c.proc.rt.ctrs.streamEventsIn.Add(1)
	}
	if c.job.Mem != nil {
		c.job.Mem.Add(int64(rec.Size()))
	}
	if sealed := c.spl.add(p, rec); sealed != nil {
		if tb := c.proc.tb; tb != nil {
			tb.Instant(taskTID(c.task, c.isO), "spl.seal", "buffer",
				map[string]any{"partition": p, "bytes": sealed.rawBytes(), "records": sealed.records})
		}
		if err := c.submitSealed(*sealed); err != nil {
			return err
		}
	}
	// Raw Streaming mode bounds buffering delay: if data has been sitting
	// in the SPL longer than FlushInterval, drain it now so downstream
	// latency stays low even at low arrival rates. A StreamJob source
	// seals by event time instead, so its framing does not depend on
	// timing.
	if c.job.Mode == Streaming && !c.wmSeal {
		now := time.Now()
		if c.lastFlush.IsZero() {
			c.lastFlush = now
		} else if now.Sub(c.lastFlush) >= c.job.Conf.FlushInterval {
			c.lastFlush = now
			return c.drainSPL()
		}
	}
	// Checkpoint rounds: drain every partition buffer at a fixed emission
	// cut and commit the chunk, so checkpoints always cover an
	// emission-order prefix of the task's stream.
	if c.isO && c.job.Conf.FaultTolerance {
		c.sinceCP++
		if c.sinceCP >= c.job.Conf.CheckpointRecords {
			c.sinceCP = 0
			return c.checkpointRound()
		}
	}
	return nil
}

// SendValue emits one key-value pair whose value is streamed from an
// io.Reader of known length n, without ever materializing it: a value
// above the chunk threshold (Config.ChunkBytes, default 4 MiB) travels as
// blob continuation frames of one chunk each, and only a small opaque
// placeholder record enters the SPL, the sort, the spill and the
// checkpoint paths. Receivers land the chunks in a disk-backed store and
// A tasks stream them back through Group.ValueReader — so peak memory on
// both sides stays O(chunk size) no matter how large the value. Values at
// or below the threshold are read whole and sent as ordinary records.
//
// SendValue is available to O tasks in Common and MapReduce modes; it is
// rejected in Iteration and Streaming modes and under Conf.Combine (a
// combiner would treat placeholders as ordinary bytes). Under fault
// tolerance the chunks are checkpointed with the placeholder — a
// committed chunk file always carries a value's chunks and placeholder
// together, because both precede the next checkpoint seal — so restarts
// and partial restarts replay streamed values exactly once.
func (c *Context) SendValue(key []byte, value io.Reader, n int64) error {
	if !c.isO || c.job.Mode == Iteration || c.job.Mode == Streaming {
		return errors.New("core: SendValue requires an O task in Common or MapReduce mode")
	}
	if c.job.Conf.Combine != nil {
		return errors.New("core: SendValue cannot be used with Conf.Combine (placeholders are opaque to combiners)")
	}
	if n < 0 {
		return fmt.Errorf("core: SendValue length %d", n)
	}
	th := c.job.Conf.chunkThreshold()
	if n <= th {
		buf := make([]byte, n)
		if _, err := io.ReadFull(value, buf); err != nil {
			return fmt.Errorf("core: SendValue: %w", err)
		}
		return c.SendRecord(kv.Record{Key: key, Value: buf})
	}
	id := uint64(uint32(c.task))<<32 | uint64(c.blobSeq)
	c.blobSeq++
	ref := appendBlobRef(make([]byte, 0, blobRefLen), id, n)
	if c.skip > 0 {
		// This value is covered by a reloaded checkpoint: its chunks and
		// placeholder are re-injected from the committed chunk file, so
		// drop the bytes here. The ordinal above still advanced — blob
		// ids must stay aligned with the lost incarnation's.
		if _, err := io.CopyN(io.Discard, value, n); err != nil {
			return fmt.Errorf("core: SendValue: %w", err)
		}
		return c.SendRecord(kv.Record{Key: key, Value: ref})
	}
	p := c.job.Conf.Partition(key, ref, c.numDest())
	if p < 0 || p >= c.numDest() {
		return fmt.Errorf("core: partitioner returned %d of %d", p, c.numDest())
	}
	for off := int64(0); off < n; {
		m := th
		if n-off < m {
			m = n - off
		}
		frame := getFrame()
		var hdr [blobHdrLen]byte
		binary.BigEndian.PutUint64(hdr[0:], id)
		binary.BigEndian.PutUint64(hdr[8:], uint64(off))
		binary.BigEndian.PutUint64(hdr[16:], uint64(n))
		frame = append(frame, hdr[:]...)
		start := len(frame)
		frame = append(frame, make([]byte, int(m))...)
		if _, err := io.ReadFull(value, frame[start:]); err != nil {
			return fmt.Errorf("core: SendValue: %w", err)
		}
		if c.job.Mem != nil {
			c.job.Mem.Add(int64(len(frame) - frameHeaderLen))
		}
		// Chunk frames take their (partition, idx) labels from the same
		// per-partition sequence as SPL buffers, so the receive-side
		// dedup filter and partial-restart frame seeding cover them like
		// any other frame.
		idx := c.spl.frameSeq[p]
		c.spl.frameSeq[p]++
		if err := c.proc.submit(sendItem{
			task:       c.task,
			partition:  p,
			data:       frame,
			idx:        idx,
			prepared:   true,
			valueChunk: true,
		}, c.round); err != nil {
			return err
		}
		c.proc.rt.ctrs.blobChunksSent.Add(1)
		c.proc.rt.ctrs.blobBytesSent.Add(m)
		off += m
	}
	c.proc.rt.ctrs.blobValuesSent.Add(1)
	// The placeholder rides the normal record path (and the same
	// partition: the partitioner sees the identical (key, ref) inputs),
	// inheriting send counting, checkpoint-round and skip bookkeeping.
	return c.SendRecord(kv.Record{Key: key, Value: ref})
}

// checkpointRound drains the SPL and commits the task's open chunk.
func (c *Context) checkpointRound() error {
	if err := c.drainSPL(); err != nil {
		return err
	}
	return c.proc.submit(sendItem{task: c.task, cpSeal: true}, c.round)
}

// drainSPL seals and submits every pending partition buffer.
func (c *Context) drainSPL() error {
	start := c.proc.tb.Start()
	sealed := c.spl.drain()
	for _, item := range sealed {
		if err := c.submitSealed(item); err != nil {
			return err
		}
	}
	if tb := c.proc.tb; tb != nil && len(sealed) > 0 {
		tb.Span(taskTID(c.task, c.isO), "spl.drain", "buffer", start,
			map[string]any{"buffers": len(sealed)})
	}
	return nil
}

// submitSealed hands one sealed partition buffer to the communication
// thread.
func (c *Context) submitSealed(item sendItem) error {
	item.task, item.reverse = c.task, !c.isO
	return c.proc.submit(item, c.round)
}

// flushSends seals and submits every pending partition buffer (committing
// the final checkpoint round); called when the task function returns.
func (c *Context) flushSends() error {
	if c.isO && c.job.Conf.FaultTolerance {
		c.sinceCP = 0
		return c.checkpointRound()
	}
	return c.drainSPL()
}

// RecvRecord implements MPI_D_RECV at the record level: the next key-value
// pair routed to this task, in key order when the mode sorts. ok=false
// signals the end of the task's data.
func (c *Context) RecvRecord() (kv.Record, bool, error) {
	if c.streamCh != nil {
		// A failed run never closes the stream channels: watch the abort
		// too, or the A task would wait forever and teardown with it.
		select {
		case rec, ok := <-c.streamCh:
			if ok {
				c.received++
				c.proc.rt.ctrs.streamEventsOut.Add(1)
				c.proc.creditConsume(c.streamPart)
			}
			return rec, ok, nil
		case <-c.proc.rt.aborted:
			return kv.Record{}, false, c.proc.rt.err()
		}
	}
	if c.it == nil {
		return kv.Record{}, false, ErrNotReceiver
	}
	rec, err := c.it.Next()
	if err == io.EOF {
		return kv.Record{}, false, nil
	}
	if err != nil {
		return kv.Record{}, false, err
	}
	c.received++
	return rec, true, nil
}

// Recv implements MPI_D_RECV: the next decoded key-value pair, or ok=false
// at the end of the task's data.
func (c *Context) Recv() (key, value any, ok bool, err error) {
	rec, ok, err := c.RecvRecord()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if key, err = c.job.Conf.KeyCodec.Decode(rec.Key); err != nil {
		return nil, nil, false, fmt.Errorf("core: decoding key: %w", err)
	}
	if value, err = c.job.Conf.ValueCodec.Decode(rec.Value); err != nil {
		return nil, nil, false, fmt.Errorf("core: decoding value: %w", err)
	}
	return key, value, true, nil
}

// NextGroup is a convenience extension over MPI_D_RECV for sorted modes:
// it returns one key with every value emitted for it. ok=false signals the
// end of data. It must not be mixed with Recv/RecvRecord on one context.
func (c *Context) NextGroup() (kv.Group, bool, error) {
	if c.it == nil {
		return kv.Group{}, false, ErrNotReceiver
	}
	if !c.job.Conf.sorted() {
		return kv.Group{}, false, errors.New("core: NextGroup requires a sorted mode")
	}
	if c.grouper == nil {
		gc := c.job.Conf.GroupCompare
		if gc == nil {
			gc = c.job.Conf.compare()
		}
		c.grouper = kv.NewGrouper(c.it, gc)
		// Streamed-value placeholders resolve against this process's blob
		// store (Group.ValueReader).
		c.grouper.SetValueResolver(c.proc.blobs.resolver(c.round))
	}
	g, err := c.grouper.Next()
	if err == io.EOF {
		return kv.Group{}, false, nil
	}
	if err != nil {
		return kv.Group{}, false, err
	}
	c.received += int64(len(g.Values))
	return g, true, nil
}
