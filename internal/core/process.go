package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"datampi/internal/kv"
	"datampi/internal/mpi"
	"datampi/internal/trace"
)

// Data-plane tags. End-of-phase markers travel in-band on tagData (with
// the sentinel partition) so MPI's per-(source, tag) FIFO guarantees a
// marker is processed only after every data message the source sent
// before it.
const (
	tagData      = 100
	tagFetchReq  = 102
	tagFetchResp = 10000 // + partition
)

// endPartition is the sentinel partition id marking an end-of-phase
// message.
const endPartition = 0xFFFFFFF

// process is one DataMPI worker process: it hosts scheduled tasks and runs
// the shuffle pipelines of §IV-C — the task goroutines compute and
// hand sealed buffers to the communication threads, which sort, combine,
// checkpoint and transmit them, while the receive side merges incoming
// runs and spills past the memory-cache threshold. The send side is a
// three-stage pipeline: a dispatcher (senderLoop) fans sealed buffers out
// to a prepare worker pool that sorts/combines/re-encodes them
// concurrently, and an ordered transmit stage consumes the buffers in
// strict submission order — so per-(task, destination) order, and with it
// the end-markers-trail-all-data invariant, survives the parallelism.
// The receive side mirrors it: dataReceiver stays the single transport
// reader but only dispatches, fanning data frames out to a GOMAXPROCS-
// wide merge pool (the paper's merge thread kind) that counts, merges and
// spills concurrently with further reception; per-frame pending
// references on the mergeState keep the end-marker invariant intact.
type process struct {
	rt   *Runtime
	idx  int
	comm *mpi.Comm
	tb   *trace.Buf // nil when tracing is disabled

	sendQ  chan qItem
	prepQ  chan *pendingSend // dispatcher -> prepare pool
	xmitQ  chan *pendingSend // dispatcher -> transmit stage, submission order
	mergeQ chan mergeFrame   // receiver -> merge pool

	// sendMu serializes the inline prepare+transmit path used when
	// OSidePipelineOff; the pipeline stages never take it (they have their
	// own single-goroutine owners).
	sendMu sync.Mutex
	// prepScratch is the serial path's prepare memory (guarded by
	// sendMu).
	prepScratch prepScratch
	// committer is the background checkpoint committer; nil exactly when
	// fault tolerance is off.
	committer *cpCommitter
	// cpBatch accumulates the current checkpoint round per task for the
	// committer. It is touched only by the transmit stage (pipeline on) or
	// under sendMu (pipeline off); quiesce reads it after wg.Wait.
	cpBatch map[int][]cpEntry

	// dedup gates the receive-side duplicate-frame filter (PartialRestart):
	// seen records each accepted (task, partition, idx) so replayed frames
	// after a partial restart are dropped instead of double-merged. Both
	// are touched only by the dataReceiver goroutine.
	dedup bool
	seen  map[dedupKey]map[int64]struct{}

	// blobs is the receive-side store for streamed values (SendValue):
	// continuation frames land here chunk-at-a-time, backed by disk, and
	// A tasks read them back through Group.ValueReader.
	blobs *blobStore

	mu     sync.Mutex
	merges map[mergeKey]*mergeState
	ctxs   map[ctxKey]*Context // persistent contexts (Iteration mode)

	streamMu sync.Mutex
	streams  map[int]chan kv.Record
	// streamsClosed marks end-of-stream: frames that arrive afterwards
	// (reordered behind the final end marker under chaos) are dropped and
	// their credits refunded instead of buffering into channels nobody will
	// ever drain.
	streamsClosed bool
	// streamScratch amortizes stream decoding (dataReceiver only).
	streamScratch []kv.Record

	// credits is the streaming flow-control state; nil outside Streaming
	// mode.
	credits *creditState

	shutdownOnce sync.Once
	wg           sync.WaitGroup
}

type qItem struct {
	item  sendItem
	round int
	flush chan struct{} // flush marker: closed when the queue reaches it
}

// pendingSend is one item travelling the send pipeline. The dispatcher
// hands it to the prepare pool (when sorting/combining applies) and to the
// transmit stage in submission order; ready is closed once the prepare
// worker has filled in the prepared frame (or err).
type pendingSend struct {
	item  sendItem
	round int
	flush chan struct{}
	ready chan struct{} // nil when no prepare stage is needed
	err   error
	// rawBytes is item.rawBytes before prepare.
	rawBytes int
}

// mergeFrame is one received data frame travelling the A-side pipeline
// from the receiver to the merge pool. The frame's pending reference on
// ms was taken by the receiver before dispatch and is dropped by the
// worker once the run is merged.
type mergeFrame struct {
	ms        *mergeState
	partition int
	src       int
	records   []byte
}

type mergeKey struct {
	round   int
	reverse bool
}

type ctxKey struct {
	task int
	isO  bool
}

// dedupKey identifies one sender stream for duplicate-frame filtering.
// It is keyed on the task, not the source process, so a task re-run on a
// different process after a partial restart still deduplicates against
// the lost incarnation's deliveries.
type dedupKey struct {
	task      int
	partition int
}

func newProcess(rt *Runtime, idx int, comm *mpi.Comm) *process {
	p := &process{
		rt:      rt,
		idx:     idx,
		comm:    comm,
		tb:      rt.job.Trace.Rank(idx),
		sendQ:   make(chan qItem, 256),
		prepQ:   make(chan *pendingSend, 256),
		xmitQ:   make(chan *pendingSend, 256),
		mergeQ:  make(chan mergeFrame, 256),
		merges:  make(map[mergeKey]*mergeState),
		ctxs:    make(map[ctxKey]*Context),
		streams: make(map[int]chan kv.Record),
	}
	p.blobs = newBlobStore(p)
	cfg := &rt.job.Conf
	if cfg.FaultTolerance {
		p.committer = newCPCommitter(p)
		p.cpBatch = make(map[int][]cpEntry)
	}
	if cfg.PartialRestart {
		p.dedup = true
		p.seen = make(map[dedupKey]map[int64]struct{})
	}
	if rt.job.Mode == Streaming {
		p.credits = newCreditState(comm.Size(), rt.job.hooks.streamCredits())
		p.wg.Add(1)
		go p.creditReceiver()
	}
	p.wg.Add(3)
	go p.senderLoop()
	go p.transmitLoop()
	go p.dataReceiver()
	for w := 0; w < rt.job.hooks.prepareWidth(); w++ {
		p.wg.Add(1)
		go p.prepareWorker(w)
	}
	for w := 0; w < rt.job.hooks.mergeWidth(); w++ {
		p.wg.Add(1)
		go p.mergeWorker(w)
	}
	if rt.job.Conf.DataCentricOff {
		p.wg.Add(1)
		go p.fetchServer()
	}
	return p
}

// ---------------------------------------------------------------------------
// Send path (communication thread)

// submit hands a sealed buffer to the communication thread; with the
// O-side pipeline disabled (ablation) it transmits synchronously instead.
func (p *process) submit(item sendItem, round int) error {
	if p.rt.job.Conf.OSidePipelineOff {
		return p.processItem(item, round)
	}
	select {
	case p.sendQ <- qItem{item: item, round: round}:
		return nil
	case <-p.rt.aborted:
		return p.rt.err()
	}
}

// flushQueue blocks until every item submitted before it has been sent.
func (p *process) flushQueue() error {
	if p.rt.job.Conf.OSidePipelineOff {
		return nil
	}
	fl := make(chan struct{})
	select {
	case p.sendQ <- qItem{flush: fl}:
	case <-p.rt.aborted:
		return p.rt.err()
	}
	select {
	case <-fl:
		return nil
	case <-p.rt.aborted:
		return p.rt.err()
	}
}

// needsPrepare reports whether an item must pass through the prepare
// stage (sort/combine/re-encode) before transmission.
func (p *process) needsPrepare(item *sendItem) bool {
	cfg := &p.rt.job.Conf
	return !item.cpSeal && !item.prepared && (cfg.sorted() || cfg.Combine != nil)
}

// senderLoop is the pipeline dispatcher: it pulls submissions off sendQ,
// fans prepare work out to the worker pool, and enqueues every item —
// including flush markers — onto xmitQ in submission order. Only the
// dispatcher writes to prepQ/xmitQ, so closing them here lets the
// downstream stages drain and exit.
func (p *process) senderLoop() {
	defer p.wg.Done()
	defer close(p.prepQ)
	defer close(p.xmitQ)
	for {
		var qi qItem
		var ok bool
		select {
		case qi, ok = <-p.sendQ:
			if !ok {
				return
			}
		case <-p.rt.aborted:
			return
		}
		ps := &pendingSend{item: qi.item, round: qi.round, flush: qi.flush}
		if qi.flush == nil {
			// Snapshot the sealed size before a prepare worker can mutate
			// the item concurrently.
			ps.rawBytes = ps.item.rawBytes()
			if p.needsPrepare(&ps.item) {
				ps.ready = make(chan struct{})
				select {
				case p.prepQ <- ps:
				case <-p.rt.aborted:
					return
				}
			}
		}
		select {
		case p.xmitQ <- ps:
		case <-p.rt.aborted:
			return
		}
	}
}

// prepareWorker is one worker of the prepare pool: it sorts, combines and
// re-encodes sealed buffers concurrently with its siblings, publishing the
// result through ps.ready. Items complete out of order here; the transmit
// stage restores submission order.
func (p *process) prepareWorker(w int) {
	defer p.wg.Done()
	var scratch prepScratch
	for ps := range p.prepQ {
		start := p.tb.Start()
		in, err := p.prepare(&ps.item, &scratch)
		ps.err = err
		if err == nil && p.tb != nil {
			p.tb.Span(prepTID(w), "prepare", "shuffle", start, map[string]any{
				"task": ps.item.task, "partition": ps.item.partition,
				"in": in, "out": ps.item.records,
			})
		}
		close(ps.ready)
	}
}

// prepare runs prepareFrame on one item, charged to the busy tracker, and
// counts its combine work; it returns the record count the item sealed.
func (p *process) prepare(item *sendItem, scratch *prepScratch) (int64, error) {
	if p.rt.job.Busy != nil {
		defer p.rt.job.Busy.Track()()
	}
	in := item.records
	if err := prepareFrame(&p.rt.job.Conf, item, scratch); err != nil {
		return in, err
	}
	p.rt.ctrs.combineIn.Add(in)
	p.rt.ctrs.combineOut.Add(item.records)
	return in, nil
}

// transmitLoop is the ordered transmit stage: it consumes xmitQ in
// submission order, waiting for each item's prepare to finish before
// sending, so a task's buffers reach the wire — and the per-(source, tag)
// FIFO — in exactly the order the task sealed them, and a flush marker
// completes only after everything submitted before it was transmitted.
func (p *process) transmitLoop() {
	defer p.wg.Done()
	for ps := range p.xmitQ {
		if ps.flush != nil {
			close(ps.flush)
			continue
		}
		if ps.ready != nil {
			select {
			case <-ps.ready:
			case <-p.rt.aborted:
				return
			}
		}
		if ps.err == nil {
			ps.err = p.transmit(&ps.item, ps.round, ps.rawBytes)
		}
		if ps.err != nil {
			p.fail(ps.err)
			return
		}
	}
}

// processItem is the serial ablation path (OSidePipelineOff): prepare and
// transmit inline on the submitting goroutine, serialized by sendMu.
func (p *process) processItem(item sendItem, round int) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	rawBytes := item.rawBytes()
	if p.needsPrepare(&item) {
		if _, err := p.prepare(&item, &p.prepScratch); err != nil {
			return err
		}
	}
	return p.transmit(&item, round, rawBytes)
}

// transmit checkpoints (if fault tolerance is on) and sends one prepared
// framed buffer, writing the wire header in place — no copy — and
// recycling the frame once the transport no longer references it. Called
// from the transmit stage (pipeline on) or under sendMu (pipeline off).
func (p *process) transmit(item *sendItem, round int, rawBytes int) error {
	start := p.tb.Start()
	cfg := &p.rt.job.Conf
	if item.cpSeal {
		if item.task < 0 {
			p.sealAllCheckpoints()
			return nil
		}
		if entries := p.cpBatch[item.task]; len(entries) > 0 {
			delete(p.cpBatch, item.task)
			p.committer.submit(&cpBatch{task: item.task, entries: entries})
		}
		return nil
	}
	frame, nrec := item.data, item.records
	writeFrameHeader(frame, round, item.partition, item.reverse, item.valueChunk, item.task, item.idx)
	checkpointed := cfg.FaultTolerance && !item.noCheckpoint && !item.reverse
	var dst int
	if item.reverse {
		dst = p.rt.procOfOTask(item.partition)
	} else {
		dst = p.rt.ownerProc(item.partition)
	}
	recBytes := int64(len(frame) - frameHeaderLen)
	acquired := false
	if p.credits != nil && !item.reverse && !item.valueChunk && nrec > 0 {
		if err := p.acquireCredits(dst, nrec); err != nil {
			return err
		}
		acquired = true
	}
	if err := p.comm.Send(dst, tagData, frame); err != nil {
		if acquired {
			// The receiver never saw the frame, so no grant will come back;
			// return the credits locally.
			p.addCredits(dst, nrec)
		}
		if cfg.PartialRestart && checkpointed && errors.Is(err, mpi.ErrRankDead) {
			// The destination died but this frame is durable: it is queued
			// for the committer below, and the rejoin barrier commits open
			// rounds before the master's recovery scan — so the replay
			// covers it. Dropping instead of failing keeps survivor tasks
			// running.
			p.rt.ctrs.partialDropped.Add(1)
			p.checkpointFrame(item.task, frame, nrec)
			item.data = nil
			if p.rt.job.Mem != nil {
				p.rt.job.Mem.Add(-int64(rawBytes))
			}
			return nil
		}
		return err
	}
	if checkpointed {
		// The committer takes ownership of the frame after the transport
		// released it and recycles it once written.
		p.checkpointFrame(item.task, frame, nrec)
	} else {
		putFrame(frame)
	}
	item.data = nil
	if p.rt.job.Mem != nil {
		p.rt.job.Mem.Add(-int64(rawBytes))
	}
	p.rt.bytesShuffled.Add(recBytes)
	p.rt.ctrs.addPairSent(p.idx, dst, recBytes, nrec)
	if p.tb != nil {
		p.tb.Span(tidSend, "xmit", "shuffle", start, map[string]any{
			"task": item.task, "partition": item.partition, "dst": dst,
			"bytes": recBytes, "records": nrec, "reverse": item.reverse,
		})
	}
	return nil
}

// checkpointFrame queues one transmitted frame into its task's open
// checkpoint round; the chunk payload is the frame minus the round word,
// byte-identical to the wire payload receivers decode.
func (p *process) checkpointFrame(task int, frame []byte, nrec int64) {
	p.cpBatch[task] = append(p.cpBatch[task], cpEntry{frame: frame, records: nrec})
	p.rt.ctrs.cpRecords.Add(nrec)
}

// sealAllCheckpoints commits every open round on this process — the
// rejoin barrier after a partial restart. Once the cpSeal(task=-1) item
// carrying it has been processed, every frame this process transmitted
// (or dropped on the dead rank) before the barrier is in a committed
// chunk, so the master's recovery scan sees it.
func (p *process) sealAllCheckpoints() {
	for task, entries := range p.cpBatch {
		delete(p.cpBatch, task)
		if len(entries) > 0 {
			p.committer.submit(&cpBatch{task: task, entries: entries})
		}
	}
	p.committer.drain()
}

// ---------------------------------------------------------------------------
// Receive path (merge threads)

// dataReceiver is the single transport reader and the A-side pipeline's
// dispatcher: end markers and Streaming-mode deliveries are handled
// inline (they depend on the per-(source, tag) arrival order), while data
// frames are handed to the merge pool so decoding, merging and spilling
// overlap with further reception. Each dispatched frame takes a pending
// reference on its mergeState first — the receiver also processes the end
// markers, so by the time the last marker arrives every earlier frame's
// reference is already taken, and finalization waits for the pool to
// drain them.
func (p *process) dataReceiver() {
	defer p.wg.Done()
	defer close(p.mergeQ) // sole writer; lets the merge pool drain and exit
	streaming := p.rt.job.Mode == Streaming
	for {
		wire, st, err := p.comm.Recv(mpi.AnySource, tagData)
		if err != nil {
			return // world closed
		}
		start := p.tb.Start()
		if len(wire) < 4 {
			p.fail(fmt.Errorf("core: short data message (%d bytes)", len(wire)))
			return
		}
		round := int(binary.BigEndian.Uint32(wire))
		partition, reverse, valueChunk, task, idx, records, err := decodePayload(wire[4:])
		if err != nil {
			p.fail(err)
			return
		}
		if partition == endPartition {
			ms := p.merge(mergeKey{round: round, reverse: reverse})
			if ms.end() && p.rt.job.Mode == Streaming && !reverse {
				p.closeStreams()
			}
			continue
		}
		if p.dedup && !reverse && task >= 0 {
			k := dedupKey{task: task, partition: partition}
			s := p.seen[k]
			if s == nil {
				s = make(map[int64]struct{})
				p.seen[k] = s
			}
			if _, dup := s[idx]; dup {
				// A replayed frame this process already merged (partial
				// restart); drop it before it is counted or merged. A
				// streaming frame's credits still have to flow back, or the
				// replaying sender would stall against records that were
				// never queued.
				p.rt.ctrs.partialDupFrames.Add(1)
				if streaming {
					if nrec, cerr := kv.CountRecords(records); cerr == nil {
						p.creditRefund(st.Source, nrec)
					}
				}
				continue
			}
			s[idx] = struct{}{}
		}
		if valueChunk && !reverse {
			// A streamed-value continuation frame: its payload goes to the
			// disk-backed blob store, never into the merge path. The dedup
			// filter above already dropped replayed duplicates; re-delivered
			// chunks that slip past it (dedup off) are idempotent because
			// the store writes by offset.
			if err := p.blobs.ingest(round, records); err != nil {
				p.fail(err)
				return
			}
			p.rt.ctrs.addPairRecv(st.Source, p.idx, int64(len(records)), 0)
			if p.tb != nil {
				p.tb.Span(tidRecv, "recv", "shuffle", start, map[string]any{
					"src": st.Source, "partition": partition,
					"bytes": len(records), "blob": true,
				})
			}
			continue
		}
		if streaming && !reverse {
			nrec, err := kv.CountRecords(records)
			if err != nil {
				p.fail(err)
				return
			}
			delivered, err := p.streamDeliver(partition, st.Source, nrec, records)
			if err != nil {
				p.fail(err)
				return
			}
			if !delivered {
				continue
			}
			p.rt.ctrs.addPairRecv(st.Source, p.idx, int64(len(records)), nrec)
			if p.tb != nil {
				p.tb.Span(tidRecv, "recv", "shuffle", start, map[string]any{
					"src": st.Source, "partition": partition,
					"bytes": len(records), "records": nrec, "reverse": reverse,
				})
			}
			continue
		}
		ms := p.merge(mergeKey{round: round, reverse: reverse})
		ms.addPending()
		select {
		case p.mergeQ <- mergeFrame{ms: ms, partition: partition, src: st.Source, records: records}:
		case <-p.rt.aborted:
			return
		}
		if p.tb != nil {
			p.tb.Span(tidRecv, "recv", "shuffle", start, map[string]any{
				"src": st.Source, "partition": partition,
				"bytes": len(records), "reverse": reverse,
			})
		}
	}
}

// ingestRun counts, accounts and merges one received run into its RPL.
func (p *process) ingestRun(tid int, mf mergeFrame) error {
	start := p.tb.Start()
	nrec, err := kv.CountRecords(mf.records)
	if err != nil {
		return err
	}
	p.rt.ctrs.addPairRecv(mf.src, p.idx, int64(len(mf.records)), nrec)
	if err := mf.ms.addRun(mf.partition, mf.records, tid); err != nil {
		return err
	}
	if p.tb != nil {
		p.tb.Span(tid, "merge", "shuffle", start, map[string]any{
			"src": mf.src, "partition": mf.partition,
			"bytes": len(mf.records), "records": nrec,
		})
	}
	return nil
}

// mergeWorker is one worker of the A-side merge pool (§IV-C's merge
// thread kind): it counts, merges and — past the memory-cache threshold —
// spills received runs concurrently with its siblings and with further
// reception, then drops the frame's pending reference so finalization can
// fire once every marker arrived and every in-flight frame was merged.
func (p *process) mergeWorker(w int) {
	defer p.wg.Done()
	for mf := range p.mergeQ {
		err := p.ingestRun(mergeTID(w), mf)
		mf.ms.donePending()
		if err != nil {
			p.fail(err)
			return
		}
	}
}

// fail records a process-level failure with this worker's rank attached
// (surfaced as RunError.Rank).
func (p *process) fail(err error) { p.rt.failAt(p.idx, err) }

// merge returns (creating if needed) the merge state for a key.
func (p *process) merge(k mergeKey) *mergeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	ms := p.merges[k]
	if ms == nil {
		ms = newMergeState(p, k)
		p.merges[k] = ms
	}
	return ms
}

// dropMerge releases a consumed partition's memory after an A task is done.
func (p *process) dropMerge(k mergeKey, partition int) {
	p.mu.Lock()
	ms := p.merges[k]
	p.mu.Unlock()
	if ms != nil {
		ms.release(partition)
	}
}

// sendEndMarkers tells every process that this process will send no more
// data for (round, reverse). Markers ride tagData after all data messages,
// so FIFO ordering makes them trailing by construction.
func (p *process) sendEndMarkers(round int, reverse bool) error {
	wire := getFrame()
	defer putFrame(wire)
	writeFrameHeader(wire, round, endPartition, reverse, false, -1, 0)
	for dst := 0; dst < p.comm.Size(); dst++ {
		if err := p.comm.Send(dst, tagData, wire); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Streaming delivery

// streamChan returns the partition's stream channel, creating it on first
// use. An A task that starts only after end-of-stream still gets the
// channel the receiver filled and closed, or a closed empty one.
func (p *process) streamChan(partition int) chan kv.Record {
	p.streamMu.Lock()
	defer p.streamMu.Unlock()
	return p.streamChanLocked(partition)
}

func (p *process) streamChanLocked(partition int) chan kv.Record {
	ch := p.streams[partition]
	if ch == nil {
		ch = make(chan kv.Record, 4096)
		if p.streamsClosed {
			close(ch)
		}
		p.streams[partition] = ch
	}
	return ch
}

// streamDeliver pushes one received frame's records into the partition's
// stream channel. Frames landing after end-of-stream (reordered behind the
// final end marker under chaos) are discarded with their credits refunded;
// delivered=false tells the receiver not to count them.
func (p *process) streamDeliver(partition, src int, nrec int64, records []byte) (bool, error) {
	p.streamMu.Lock()
	if p.streamsClosed {
		p.streamMu.Unlock()
		p.rt.ctrs.streamFramesAfterEOS.Add(1)
		p.creditRefund(src, nrec)
		return false, nil
	}
	ch := p.streamChanLocked(partition)
	p.streamMu.Unlock()
	// The ledger entry must exist before the first record can possibly be
	// consumed, so note the batch ahead of the channel sends.
	p.creditNote(partition, src, nrec)
	// records aliases the received wire buffer, which the transport handed
	// over for good (mpi's recv ownership contract) — so the delivered
	// Records can alias it too: one backing buffer per message instead of
	// two allocations per record. The scratch header slice is reused per
	// message; the Record values are copied into the channel.
	recs, err := kv.DecodeAllInto(p.streamScratch[:0], records)
	if err != nil {
		return false, err
	}
	p.streamScratch = recs
	for _, rec := range recs {
		select {
		case ch <- rec:
		case <-p.rt.aborted:
			return false, p.rt.err()
		}
	}
	return true, nil
}

func (p *process) closeStreams() {
	p.streamMu.Lock()
	defer p.streamMu.Unlock()
	for _, ch := range p.streams {
		close(ch)
	}
	p.streamsClosed = true
}

// ---------------------------------------------------------------------------
// Remote partition fetch (data-centric scheduling ablation)

func (p *process) fetchServer() {
	defer p.wg.Done()
	for {
		req, st, err := p.comm.Recv(mpi.AnySource, tagFetchReq)
		if err != nil {
			return
		}
		if len(req) < 9 {
			p.fail(errors.New("core: short fetch request"))
			return
		}
		round := int(binary.BigEndian.Uint32(req))
		partition := int(binary.BigEndian.Uint32(req[4:]))
		reverse := req[8] != 0
		p.wg.Add(1)
		go func(src int) {
			defer p.wg.Done()
			ms := p.merge(mergeKey{round: round, reverse: reverse})
			if err := ms.waitFinalized(); err != nil {
				return
			}
			blob, err := ms.serializeRuns(partition)
			if err != nil {
				p.fail(err)
				return
			}
			p.rt.ctrs.fetchBytesServed.Add(int64(len(blob)))
			if p.tb != nil {
				p.tb.Instant(tidRecv, "fetch.serve", "shuffle",
					map[string]any{"partition": partition, "dst": src, "bytes": len(blob)})
			}
			if err := p.comm.Send(src, tagFetchResp+partition, blob); err != nil {
				p.fail(err)
			}
		}(st.Source)
	}
}

// fetchPartition pulls a remote partition's runs from its owner.
func (p *process) fetchPartition(round, partition int, reverse bool, owner int) (kv.Iterator, error) {
	req := make([]byte, 9)
	binary.BigEndian.PutUint32(req, uint32(round))
	binary.BigEndian.PutUint32(req[4:], uint32(partition))
	if reverse {
		req[8] = 1
	}
	if err := p.comm.Send(owner, tagFetchReq, req); err != nil {
		return nil, err
	}
	blob, _, err := p.comm.Recv(owner, tagFetchResp+partition)
	if err != nil {
		return nil, err
	}
	runs, err := deserializeRuns(blob)
	if err != nil {
		return nil, err
	}
	return p.rt.iteratorOverRuns(runs, nil)
}

func deserializeRuns(blob []byte) ([][]byte, error) {
	if len(blob) < 4 {
		return nil, errors.New("core: short fetch response")
	}
	n := int(binary.BigEndian.Uint32(blob))
	blob = blob[4:]
	runs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(blob) < 4 {
			return nil, errors.New("core: truncated fetch response")
		}
		l := int(binary.BigEndian.Uint32(blob))
		blob = blob[4:]
		if len(blob) < l {
			return nil, errors.New("core: truncated fetch run")
		}
		runs = append(runs, blob[:l])
		blob = blob[l:]
	}
	return runs, nil
}

// shutdown stops the sender; receivers exit when the world closes.
func (p *process) shutdown() {
	p.shutdownOnce.Do(func() { close(p.sendQ) })
}

// quiesce waits for every process goroutine to exit, then stops the
// checkpoint committer.
func (p *process) quiesce() {
	p.wg.Wait()
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.committer != nil {
		// The transmit stage has exited; drop any uncommitted batch (a
		// crash at this point would lose it the same way) and let the
		// committer finish in-flight writes before returning.
		for task, entries := range p.cpBatch {
			delete(p.cpBatch, task)
			for _, e := range entries {
				putFrame(e.frame)
			}
		}
		close(p.committer.q)
		<-p.committer.done
	}
	p.blobs.close()
}
