package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"datampi/internal/kv"
)

// spillBlock is the write size of spill and compaction runs: records are
// framed into a block of this size and each block costs one Write.
const spillBlock = 256 << 10

// spillBlocks recycles writeMerged's write blocks across spills and
// compactions, as framePool does send frames.
var spillBlocks = sync.Pool{New: func() any {
	b := make([]byte, 0, spillBlock)
	return &b
}}

// mergeState is one (round, direction)'s Receive Partition List: the sorted
// runs received for each partition this process owns, in memory up to the
// configured cache size and on disk beyond it (§IV-D). It becomes
// "finalized" once an end marker has arrived from every process and every
// pending reference has drained. End markers trail all data per-(source,
// tag) on the wire, but with the A-side merge pipeline the last frames may
// still be inside the worker pool when the last marker is processed — the
// receiver takes a pending reference per dispatched frame (and each
// background compaction takes one too), so finalization fires only when
// the markers are all in AND nothing is still merging.
type mergeState struct {
	p   *process
	key mergeKey

	mu        sync.Mutex
	cond      *sync.Cond
	parts     map[int]*partRuns
	memBytes  int64
	ends      int
	pending   int // in-flight pipeline frames + background compactions
	finalized bool
	spillSeq  int
}

type partRuns struct {
	memRuns  [][]byte
	memBytes int64
	diskRuns []string
	// compacting marks a background merge of this partition's disk runs;
	// at most one compaction per partition runs at a time.
	compacting bool
}

func newMergeState(p *process, key mergeKey) *mergeState {
	ms := &mergeState{p: p, key: key, parts: make(map[int]*partRuns)}
	ms.cond = sync.NewCond(&ms.mu)
	return ms
}

func (ms *mergeState) part(partition int) *partRuns {
	pr := ms.parts[partition]
	if pr == nil {
		pr = &partRuns{}
		ms.parts[partition] = pr
	}
	return pr
}

// addRun appends one received run to a partition and spills if the memory
// cache threshold is exceeded. Merge workers call this concurrently: each
// spill detaches the victim's runs under the lock — taking exclusive
// ownership of them — and merges and writes them unlocked, so two workers
// can spill different victims in parallel and disk I/O never stalls
// iterator waiters or sibling workers holding ms.mu. tid is the caller's
// trace row for the spill-write span.
func (ms *mergeState) addRun(partition int, records []byte, tid int) error {
	cfg := &ms.p.rt.job.Conf
	ms.mu.Lock()
	pr := ms.part(partition)
	pr.memRuns = append(pr.memRuns, records)
	pr.memBytes += int64(len(records))
	ms.memBytes += int64(len(records))
	if ms.p.rt.job.Mem != nil {
		ms.p.rt.job.Mem.Add(int64(len(records)))
	}
	spillable := cfg.MemCacheBytes > 0 && ms.p.rt.job.SpillDisks != nil
	for spillable && ms.memBytes > cfg.MemCacheBytes {
		victim, runs, bytes := ms.detachLargestLocked()
		if runs == nil {
			break // nothing spillable; allow overshoot
		}
		rel := fmt.Sprintf("dmpi-spill/run%d/r%d_rev%v_p%d_%d",
			ms.p.rt.id, ms.key.round, ms.key.reverse, victim, ms.spillSeq)
		ms.spillSeq++
		ms.mu.Unlock()
		err := ms.writeRun(rel, runs, victim, bytes, tid)
		ms.mu.Lock()
		if err != nil {
			ms.mu.Unlock()
			return err
		}
		ms.commitSpillLocked(victim, rel, bytes)
	}
	ms.mu.Unlock()
	return nil
}

// detachLargestLocked removes the largest partition's in-memory runs,
// returning them for an unlocked spill write. ms.memBytes is left charged
// until commitSpillLocked so the spill loop's threshold check stays
// consistent across concurrent spillers. Caller holds ms.mu.
func (ms *mergeState) detachLargestLocked() (victim int, runs [][]byte, bytes int64) {
	for p, pr := range ms.parts {
		if pr.memBytes > bytes {
			victim, bytes = p, pr.memBytes
		}
	}
	if bytes == 0 {
		return 0, nil, 0
	}
	pr := ms.parts[victim]
	runs = pr.memRuns
	pr.memRuns = nil
	pr.memBytes = 0
	return victim, runs, bytes
}

// writeRun merges detached runs into one sorted disk run. Called without
// ms.mu held; the detached runs are exclusively owned here, and iterators
// cannot observe the partition before finalization.
func (ms *mergeState) writeRun(rel string, runs [][]byte, victim int, bytes int64, tid int) error {
	start := ms.p.tb.Start()
	it, err := ms.p.rt.iteratorOverRuns(runs, nil)
	if err != nil {
		return err
	}
	if _, err := ms.writeMerged(rel, it); err != nil {
		return err
	}
	if tb := ms.p.tb; tb != nil {
		tb.Span(tid, "spill.write", "spill", start,
			map[string]any{"partition": victim, "bytes": bytes})
	}
	return nil
}

// writeMerged drains it into a new spill file rel, framing the records
// into spillBlock blocks with one Write each, and returns the bytes
// written. Spill and compaction both write through it.
func (ms *mergeState) writeMerged(rel string, it kv.Iterator) (int64, error) {
	f, err := ms.p.rt.job.SpillDisks[ms.p.idx].Create(rel)
	if err != nil {
		return 0, err
	}
	var n int64
	bp := spillBlocks.Get().(*[]byte)
	block := (*bp)[:0]
	defer func() {
		if cap(block) <= maxPooledFrame { // a huge record grew it: let it go
			*bp = block[:0]
			spillBlocks.Put(bp)
		}
	}()
	flush := func() error {
		_, err := f.Write(block)
		n += int64(len(block))
		block = block[:0]
		return err
	}
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			if block = kv.AppendRecord(block, rec); len(block) >= spillBlock {
				err = flush()
			}
		}
		if err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

// commitSpillLocked attaches a written disk run, releases the spilled
// bytes from the memory accounting, and schedules a background compaction
// if the partition's disk-run backlog got deep. Caller holds ms.mu.
func (ms *mergeState) commitSpillLocked(victim int, rel string, freed int64) {
	pr := ms.part(victim)
	pr.diskRuns = append(pr.diskRuns, rel)
	ms.memBytes -= freed
	if ms.p.rt.job.Mem != nil {
		ms.p.rt.job.Mem.Add(-freed)
	}
	ms.p.rt.spilledBytes.Add(freed)
	ms.p.rt.ctrs.spillBytes.Add(freed)
	ms.p.rt.ctrs.spillFiles.Add(1)
	ms.maybeCompactLocked(victim)
}

// maybeCompactLocked starts a background compaction once a partition has
// accumulated compactFanIn disk runs: the oldest runs are detached
// and k-way merged into a single sorted run off the lock, bounding the
// fan-in (and open file handles) of the final NextGroup merge. The
// compaction holds a pending reference, so the state cannot finalize —
// and the runs being rewritten cannot be read or released — while it is
// in flight. Caller holds ms.mu.
func (ms *mergeState) maybeCompactLocked(partition int) {
	fan := ms.p.rt.job.hooks.compactFanIn()
	pr := ms.parts[partition]
	if pr == nil || pr.compacting || ms.finalized || len(pr.diskRuns) < fan {
		return
	}
	rels := append([]string(nil), pr.diskRuns[:fan]...)
	pr.diskRuns = append(pr.diskRuns[:0:0], pr.diskRuns[fan:]...)
	pr.compacting = true
	ms.pending++
	out := fmt.Sprintf("dmpi-spill/run%d/compact_r%d_rev%v_p%d_%d",
		ms.p.rt.id, ms.key.round, ms.key.reverse, partition, ms.spillSeq)
	ms.spillSeq++
	ms.p.wg.Add(1)
	go func() {
		defer ms.p.wg.Done()
		ms.compactRuns(partition, rels, out)
	}()
}

// compactRuns merges the detached spill runs into one and swaps it in.
func (ms *mergeState) compactRuns(partition int, rels []string, out string) {
	written, err := ms.writeCompacted(rels, out, partition)
	ms.mu.Lock()
	pr := ms.part(partition)
	pr.compacting = false
	if err == nil {
		// The compacted run replaces the oldest runs at the front, so the
		// partition's run order is preserved for the unsorted chain.
		pr.diskRuns = append([]string{out}, pr.diskRuns...)
		// Count before the pending reference goes: once it does, the
		// partition may finalize and Run snapshot the counters.
		ms.p.rt.ctrs.spillCompactions.Add(1)
		ms.p.rt.ctrs.spillCompactRuns.Add(int64(len(rels)))
		ms.p.rt.ctrs.spillCompactBytes.Add(written)
	}
	ms.donePendingLocked()
	ms.mu.Unlock()
	if err != nil {
		ms.p.fail(err)
		return
	}
	disk := ms.p.rt.job.SpillDisks[ms.p.idx]
	for _, rel := range rels {
		_ = disk.Remove(rel)
	}
	// The backlog may still be deep (spills kept landing while we merged):
	// chain the next compaction.
	ms.mu.Lock()
	ms.maybeCompactLocked(partition)
	ms.mu.Unlock()
}

// writeCompacted k-way merges spilled runs into one new run file,
// returning the record bytes written. Runs without ms.mu held; the
// detached runs are exclusively owned by this compaction.
func (ms *mergeState) writeCompacted(rels []string, out string, partition int) (int64, error) {
	start := ms.p.tb.Start()
	it, files, err := ms.p.rt.iteratorOverRunsDisk(nil, rels, ms.p.idx)
	if err != nil {
		return 0, err
	}
	defer files.Close()
	n, err := ms.writeMerged(out, it)
	if err != nil {
		return 0, err
	}
	if tb := ms.p.tb; tb != nil {
		tb.Span(tidCompact, "spill.compact", "spill", start,
			map[string]any{"partition": partition, "runs": len(rels), "bytes": n})
	}
	return n, nil
}

// addPending takes one pending reference — an in-flight pipeline frame or
// background compaction — that finalization must wait for.
func (ms *mergeState) addPending() {
	ms.mu.Lock()
	ms.pending++
	ms.mu.Unlock()
}

// donePending drops one pending reference, finalizing if it was the last
// thing finalization was waiting on.
func (ms *mergeState) donePending() {
	ms.mu.Lock()
	ms.donePendingLocked()
	ms.mu.Unlock()
}

func (ms *mergeState) donePendingLocked() {
	ms.pending--
	ms.tryFinalizeLocked()
}

// end records one process's end marker; it returns true when the state
// just became finalized. With the merge pipeline on, finalization may
// instead fire from the last in-flight frame's donePending.
func (ms *mergeState) end() bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.ends++
	return ms.tryFinalizeLocked()
}

func (ms *mergeState) tryFinalizeLocked() bool {
	if !ms.finalized && ms.ends == ms.p.comm.Size() && ms.pending == 0 {
		ms.finalized = true
		ms.cond.Broadcast()
		return true
	}
	return false
}

// waitFinalized blocks until every process's end marker arrived and every
// pending frame was merged (or the job aborted).
func (ms *mergeState) waitFinalized() error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for !ms.finalized {
		if err := ms.p.rt.err(); err != nil {
			return err
		}
		ms.cond.Wait()
	}
	return nil
}

// wake unblocks waiters after an abort.
func (ms *mergeState) wake() {
	ms.mu.Lock()
	ms.cond.Broadcast()
	ms.mu.Unlock()
}

// iterator waits for finalization and returns an iterator over one
// partition's records (globally sorted in sorted modes) and the spill
// files it reads, which the caller closes before release.
func (ms *mergeState) iterator(partition int) (kv.Iterator, spillFiles, error) {
	if err := ms.waitFinalized(); err != nil {
		return nil, nil, err
	}
	ms.mu.Lock()
	pr := ms.parts[partition]
	var memRuns [][]byte
	var diskRuns []string
	if pr != nil {
		memRuns = pr.memRuns
		diskRuns = pr.diskRuns
	}
	ms.mu.Unlock()
	return ms.p.rt.iteratorOverRunsDisk(memRuns, diskRuns, ms.p.idx)
}

// serializeRuns flattens a partition's runs (memory and disk) into one
// blob for a remote fetch: u32 count | (u32 len | bytes)*.
func (ms *mergeState) serializeRuns(partition int) ([]byte, error) {
	ms.mu.Lock()
	pr := ms.parts[partition]
	var memRuns [][]byte
	var diskRuns []string
	if pr != nil {
		memRuns = append([][]byte(nil), pr.memRuns...)
		diskRuns = append([]string(nil), pr.diskRuns...)
	}
	ms.mu.Unlock()
	runs := memRuns
	for _, rel := range diskRuns {
		disk := ms.p.rt.job.SpillDisks[ms.p.idx]
		f, err := disk.Open(rel)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		ms.p.rt.ctrs.spillReadBytes.Add(int64(len(data)))
		runs = append(runs, data)
	}
	var total int
	for _, r := range runs {
		total += 4 + len(r)
	}
	blob := make([]byte, 4, 4+total)
	binary.BigEndian.PutUint32(blob, uint32(len(runs)))
	for _, r := range runs {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(r)))
		blob = append(blob, l[:]...)
		blob = append(blob, r...)
	}
	return blob, nil
}

// release frees a consumed partition's memory and spill files. Safe
// against in-flight compactions: release happens only after the consumer
// closed an iterator, which requires finalization, which requires the
// pending count (and with it every compaction) to have drained.
func (ms *mergeState) release(partition int) {
	ms.mu.Lock()
	pr := ms.parts[partition]
	if pr == nil {
		ms.mu.Unlock()
		return
	}
	freed := pr.memBytes
	disk := ms.p.rt.job.SpillDisks
	files := pr.diskRuns
	ms.memBytes -= freed
	delete(ms.parts, partition)
	ms.mu.Unlock()
	if ms.p.rt.job.Mem != nil {
		ms.p.rt.job.Mem.Add(-freed)
	}
	if disk != nil {
		for _, rel := range files {
			_ = disk[ms.p.idx].Remove(rel)
		}
	}
}
