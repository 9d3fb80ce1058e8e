package core

import (
	"fmt"
	"sync/atomic"

	"datampi/internal/mpi"
)

// runtimeCounters are the built-in shuffle counters (as opposed to the
// user counters of Context.AddCounter): always-on atomics incremented on
// the data path and folded into Result.RuntimeCounters when Run returns.
// The per-pair matrices index by [src][dst] worker process; pair traffic
// counts post-combine record bytes (the payload minus framing), so a
// clean run balances exactly: bytes sent from src to dst equals bytes dst
// received from src. End-of-phase markers carry no records and are not
// counted on either side.
type runtimeCounters struct {
	procs    int
	pairSent []atomic.Int64 // [src*procs+dst] record bytes transmitted
	pairRecv []atomic.Int64 // [src*procs+dst] record bytes delivered

	recordsSent atomic.Int64 // post-combine records transmitted
	recordsRecv atomic.Int64 // records delivered to RPL/stream consumers
	combineIn   atomic.Int64 // records entering sort/combine
	combineOut  atomic.Int64 // records surviving sort/combine

	spillBytes     atomic.Int64 // record bytes written to spill runs
	spillFiles     atomic.Int64 // spill runs created
	spillReadBytes atomic.Int64 // record bytes read back from spill runs

	spillCompactions  atomic.Int64 // background compactions completed
	spillCompactRuns  atomic.Int64 // spill runs merged away by compaction
	spillCompactBytes atomic.Int64 // record bytes written by compactions

	cpRecords atomic.Int64 // records appended to checkpoint chunks
	cpChunks  atomic.Int64 // checkpoint chunks sealed

	cpAsyncCommits atomic.Int64 // chunks committed by the async committer
	cpAsyncStalls  atomic.Int64 // submits that blocked with both buffers in flight

	partialRestarts  atomic.Int64 // dead ranks recovered in place (master side)
	partialReplayed  atomic.Int64 // records replayed from chunks after a partial restart
	partialDropped   atomic.Int64 // frames dropped on a dead rank pending its restart
	partialDupFrames atomic.Int64 // duplicate replayed frames dropped by receivers

	fetchBytesServed atomic.Int64 // ablation path: bytes served to remote fetches

	streamEventsIn       atomic.Int64 // records emitted by streaming sources (post-skip)
	streamEventsOut      atomic.Int64 // records consumed from stream channels
	streamCreditsGranted atomic.Int64 // record credits granted back to senders
	streamCreditStalls   atomic.Int64 // transmit waits caused by an empty credit window
	streamMaxOutstanding atomic.Int64 // max unacknowledged records on any (src,dst) pair
	streamLateDropped    atomic.Int64 // events older than a fired window (late policy: drop)
	streamWindowsFired   atomic.Int64 // windows emitted by watermark advancement
	streamWindowsFenced  atomic.Int64 // windows suppressed by an emit fence after restart
	streamStateSpills    atomic.Int64 // open windows spilled to disk under MemCacheBytes
	streamFramesAfterEOS atomic.Int64 // frames discarded after stream close (reorder chaos)

	blobValuesSent atomic.Int64 // oversized values streamed by SendValue
	blobChunksSent atomic.Int64 // blob continuation frames transmitted
	blobBytesSent  atomic.Int64 // blob value bytes transmitted
	blobChunksRecv atomic.Int64 // blob continuation frames landed in the store
	blobBytesRecv  atomic.Int64 // blob value bytes landed in the store
	blobValuesRecv atomic.Int64 // blobs fully reassembled at receivers
}

func newRuntimeCounters(procs int) *runtimeCounters {
	return &runtimeCounters{procs: procs, pairSent: make([]atomic.Int64, procs*procs),
		pairRecv: make([]atomic.Int64, procs*procs)}
}

func (rc *runtimeCounters) addPairSent(src, dst int, bytes int64, records int64) {
	rc.pairSent[src*rc.procs+dst].Add(bytes)
	rc.recordsSent.Add(records)
}

func (rc *runtimeCounters) addPairRecv(src, dst int, bytes int64, records int64) {
	rc.pairRecv[src*rc.procs+dst].Add(bytes)
	rc.recordsRecv.Add(records)
}

// maxInt64 raises m to at least v (lock-free running maximum).
func maxInt64(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// putNonzero sets out[name] to v unless v is 0: the counters of a feature
// a run did not use stay out of the map.
func putNonzero(out map[string]int64, name string, v int64) {
	if v != 0 {
		out[name] = v
	}
}

// snapshot folds the counters (plus the MPI transport's wire counters)
// into the flat name->value map reported on Result.RuntimeCounters.
func (rc *runtimeCounters) snapshot(ws mpi.Stats) map[string]int64 {
	out := map[string]int64{}
	var sent, recv int64
	for s := 0; s < rc.procs; s++ {
		for d := 0; d < rc.procs; d++ {
			if v := rc.pairSent[s*rc.procs+d].Load(); v != 0 {
				out[fmt.Sprintf("shuffle.bytes.sent.%d->%d", s, d)] = v
				sent += v
			}
			if v := rc.pairRecv[s*rc.procs+d].Load(); v != 0 {
				out[fmt.Sprintf("shuffle.bytes.received.%d->%d", s, d)] = v
				recv += v
			}
		}
	}
	out["shuffle.bytes.sent"] = sent
	out["shuffle.bytes.received"] = recv
	out["shuffle.records.sent"] = rc.recordsSent.Load()
	out["shuffle.records.received"] = rc.recordsRecv.Load()
	out["combine.records.in"] = rc.combineIn.Load()
	out["combine.records.out"] = rc.combineOut.Load()
	out["spill.bytes.written"] = rc.spillBytes.Load()
	out["spill.files"] = rc.spillFiles.Load()
	out["spill.bytes.read"] = rc.spillReadBytes.Load()
	out["spill.compactions"] = rc.spillCompactions.Load()
	out["spill.compact.runs"] = rc.spillCompactRuns.Load()
	out["spill.compact.bytes"] = rc.spillCompactBytes.Load()
	out["checkpoint.records"] = rc.cpRecords.Load()
	out["checkpoint.chunks"] = rc.cpChunks.Load()
	// Async-commit and partial-restart counters appear only when nonzero,
	// so the sync/async ablations stay byte-identical on the shared set.
	putNonzero(out, "cp.async.commits", rc.cpAsyncCommits.Load())
	putNonzero(out, "cp.async.stalls", rc.cpAsyncStalls.Load())
	putNonzero(out, "restart.partial.restarts", rc.partialRestarts.Load())
	putNonzero(out, "restart.partial.replayed.records", rc.partialReplayed.Load())
	putNonzero(out, "restart.partial.dropped.frames", rc.partialDropped.Load())
	putNonzero(out, "restart.partial.dup.frames", rc.partialDupFrames.Load())
	// Streaming counters appear only when a job moved stream events, so
	// the non-streaming modes keep an identical counter set.
	putNonzero(out, "stream.events.in", rc.streamEventsIn.Load())
	putNonzero(out, "stream.events.out", rc.streamEventsOut.Load())
	putNonzero(out, "stream.credits.granted", rc.streamCreditsGranted.Load())
	putNonzero(out, "stream.credits.stalls", rc.streamCreditStalls.Load())
	putNonzero(out, "stream.credits.max.outstanding", rc.streamMaxOutstanding.Load())
	putNonzero(out, "stream.late.dropped", rc.streamLateDropped.Load())
	putNonzero(out, "stream.windows.fired", rc.streamWindowsFired.Load())
	putNonzero(out, "stream.windows.fenced", rc.streamWindowsFenced.Load())
	putNonzero(out, "stream.state.spills", rc.streamStateSpills.Load())
	putNonzero(out, "stream.frames.after.eos", rc.streamFramesAfterEOS.Load())
	// Blob counters appear only when a job streamed oversized values, so
	// ordinary jobs keep an identical counter set.
	putNonzero(out, "blob.values.sent", rc.blobValuesSent.Load())
	putNonzero(out, "blob.chunks.sent", rc.blobChunksSent.Load())
	putNonzero(out, "blob.bytes.sent", rc.blobBytesSent.Load())
	putNonzero(out, "blob.chunks.received", rc.blobChunksRecv.Load())
	putNonzero(out, "blob.bytes.received", rc.blobBytesRecv.Load())
	putNonzero(out, "blob.values.received", rc.blobValuesRecv.Load())
	out["fetch.bytes.served"] = rc.fetchBytesServed.Load()
	out["mpi.frames.sent"] = ws.FramesSent
	out["mpi.bytes.sent"] = ws.BytesSent
	out["mpi.frames.received"] = ws.FramesRecv
	out["mpi.bytes.received"] = ws.BytesRecv
	out["mpi.send.retries"] = ws.SendRetries
	out["mpi.dials"] = ws.Dials
	// Progress-engine wire counters appear only when nonzero, so mem-
	// transport runs (and TCP runs where a meter never fires) keep an
	// identical counter set.
	putNonzero(out, "mpi.coalesce.batches", ws.CoalesceBatches)
	putNonzero(out, "mpi.mux.conns", ws.MuxConns)
	putNonzero(out, "mpi.writev.calls", ws.WritevCalls)
	putNonzero(out, "mpi.shm.conns", ws.ShmConns)
	putNonzero(out, "mpi.shm.bytes", ws.ShmBytes)
	putNonzero(out, "mpi.shm.wakes", ws.ShmWakes)
	putNonzero(out, "mpi.shm.spins", ws.ShmSpins)
	// Transport-level chunking fires only when a single message outgrows
	// the chunk threshold, so ordinary runs see no mpi.chunk.* keys.
	putNonzero(out, "mpi.chunk.frames.sent", ws.ChunkFramesSent)
	putNonzero(out, "mpi.chunk.frames.received", ws.ChunkFramesRecv)
	putNonzero(out, "mpi.chunk.msgs.sent", ws.ChunkMsgsSent)
	putNonzero(out, "mpi.chunk.msgs.reassembled", ws.ChunkMsgsReassembled)
	return out
}

// Trace row layout: each worker process is one trace pid (the master uses
// pid Procs); within a process, the communication threads get fixed tids
// and each task gets its own row so concurrent tasks do not overlap.
const (
	tidControl = 0
	tidSend    = 1
	tidRecv    = 2
	// tidPrepare is the first prepare-pool row; workers beyond
	// maxPrepareRows share the last row. The merge pool and the spill
	// compactor follow, so task rows (>= 10) stay clear.
	tidPrepare     = 3
	maxPrepareRows = 3
	// tidMerge is the first merge-pool row (the A-side merge thread kind).
	tidMerge     = 6
	maxMergeRows = 3
	// tidCompact hosts background spill-compaction spans.
	tidCompact = 9
)

// prepTID maps a prepare worker to its trace row.
func prepTID(w int) int {
	if w >= maxPrepareRows {
		w = maxPrepareRows - 1
	}
	return tidPrepare + w
}

// mergeTID maps a merge worker to its trace row.
func mergeTID(w int) int {
	if w >= maxMergeRows {
		w = maxMergeRows - 1
	}
	return tidMerge + w
}

// taskTID maps a task to its trace row: O task t at 10+2t, A task t at
// 11+2t, so the two sides interleave predictably in the viewer.
func taskTID(task int, isO bool) int {
	if isO {
		return 10 + 2*task
	}
	return 11 + 2*task
}
