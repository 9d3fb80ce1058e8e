package core

import (
	"fmt"

	"datampi/internal/kv"
)

// workerLoop is a worker process's control loop: it receives scheduling
// commands from mpidrun over the intercommunicator and reports events back
// (§IV-B, Fig. 4).
func (rt *Runtime) workerLoop(p *process) {
	ic := rt.workerICs[p.idx]
	for {
		cmd, err := recvCtrl(ic)
		if err != nil {
			return // world closed
		}
		switch cmd.Type {
		case "runO":
			rt.setCPSeq(cmd.Task, cmd.CPSeq)
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.runOTask(p, cmd) }()
		case "runA":
			if cmd.AssignO != nil {
				rt.setAssignO(cmd.AssignO)
			}
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.runATask(p, cmd) }()
		case "endO":
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.endPhase(p, cmd.Round, false) }()
		case "endRev":
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.endPhase(p, cmd.Round, true) }()
		case "reload":
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.reloadChunks(p, cmd) }()
		case "rejoin":
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.rejoinRank(p, cmd) }()
		case "replay":
			p.wg.Add(1)
			go func() { defer p.wg.Done(); rt.replayChunks(p, cmd) }()
		case "shutdown":
			// Let in-flight transmits (and their trailing cpSeal items)
			// drain, then wait out the async committer, so the bye event's
			// counter snapshot includes every committed chunk.
			_ = p.flushQueue()
			if p.committer != nil {
				p.committer.drain()
			}
			p.shutdown()
			rt.reportEvent(p, rt.byeEvent(p))
			return
		default:
			rt.fail(fmt.Errorf("core: unknown control message %q", cmd.Type))
			return
		}
	}
}

// reportEvent sends an event to mpidrun, failing the job on error.
func (rt *Runtime) reportEvent(p *process, ev eventMsg) {
	ev.Proc = p.idx
	if err := sendEvent(rt.workerICs[p.idx], ev); err != nil {
		rt.fail(err)
	}
}

// endPhase flushes the communication queue and broadcasts end markers so
// every merge state for (round, reverse) can finalize.
func (rt *Runtime) endPhase(p *process, round int, reverse bool) {
	if err := p.flushQueue(); err != nil {
		rt.fail(err)
		return
	}
	if err := p.sendEndMarkers(round, reverse); err != nil {
		rt.fail(err)
	}
}

// taskContext returns the (persistent, for Iteration mode) context of a
// task on this process, creating it on first use.
func (rt *Runtime) taskContext(p *process, task int, isO bool, skip int64) *Context {
	key := ctxKey{task: task, isO: isO}
	p.mu.Lock()
	defer p.mu.Unlock()
	ctx := p.ctxs[key]
	if ctx == nil {
		dests := rt.job.NumA
		if !isO {
			dests = rt.job.NumO
		}
		ctx = &Context{
			proc:    p,
			job:     rt.job,
			task:    task,
			isO:     isO,
			spl:     newSPL(dests, rt.job.Conf.SPLBytes),
			skip:    skip,
			cpTotal: skip,
		}
		ctx.spl.tables = rt.job.Conf.Combine != nil && rt.job.Conf.Compare == nil
		if isO && rt.job.Mode == Streaming {
			// Cap sealed frames at half the credit window so no single frame
			// can demand more credits than the window holds.
			ctx.spl.maxRecords = rt.job.hooks.streamCredits() / 2
		}
		p.ctxs[key] = ctx
	}
	return ctx
}

// runOTask executes one task of COMM_BIPARTITE_O.
func (rt *Runtime) runOTask(p *process, cmd ctrlMsg) {
	tstart := p.tb.Start()
	ctx := rt.taskContext(p, cmd.Task, true, cmd.Skip)
	if len(cmd.CPFrames) > 0 {
		// Start frame numbering after the committed frames, so this run
		// reproduces the lost incarnation's (partition, idx) labels and
		// receivers can drop what they already merged.
		ctx.spl.seedFrameSeq(cmd.CPFrames)
	}
	ctx.round = cmd.Round
	ctx.it, ctx.grouper, ctx.streamCh = nil, nil, nil
	// In Iteration mode the O task first consumes the feedback the A side
	// sent last round (bi-directional communication, §IV-A).
	var files spillFiles
	if rt.job.Mode == Iteration {
		if cmd.Round == 0 {
			ctx.it = emptyIterator{}
		} else {
			ms := p.merge(mergeKey{round: cmd.Round - 1, reverse: true})
			it, fs, err := ms.iterator(cmd.Task)
			if err != nil {
				rt.taskFailed(p, err)
				return
			}
			ctx.it, files = it, fs
		}
	}
	err := rt.runUser(rt.job.OTask, ctx)
	if err == nil {
		err = ctx.flushSends()
	}
	if err == nil && rt.job.Conf.PartialRestart {
		// Under partial restart, oDone means "durable": the master's endO
		// broadcast (sent once every O task is done) closes the recovery
		// window, so a task may only report done once its frames are
		// transmitted and its checkpoint chunks committed — a death during
		// the commit tail must still land inside the window.
		err = p.flushQueue()
		if err == nil && p.committer != nil {
			p.committer.drain()
		}
	}
	if rt.job.Mode == Iteration && cmd.Round > 0 {
		files.Close()
		p.dropMerge(mergeKey{round: cmd.Round - 1, reverse: true}, cmd.Task)
	}
	if err != nil {
		rt.taskFailed(p, err)
		return
	}
	if rt.job.Progress != nil {
		rt.job.Progress.FinishO()
	}
	if p.tb != nil {
		p.tb.Span(taskTID(cmd.Task, true), fmt.Sprintf("O%d", cmd.Task), "task", tstart,
			map[string]any{"round": cmd.Round, "sent": ctx.sent})
	}
	rt.reportEvent(p, eventMsg{Type: "oDone", Task: cmd.Task, Round: cmd.Round, Records: ctx.sent, Counters: ctx.takeCounters()})
}

// runATask executes one task of COMM_BIPARTITE_A.
func (rt *Runtime) runATask(p *process, cmd ctrlMsg) {
	tstart := p.tb.Start()
	ctx := rt.taskContext(p, cmd.Task, false, 0)
	ctx.round = cmd.Round
	ctx.it, ctx.grouper, ctx.streamCh = nil, nil, nil
	fwd := mergeKey{round: cmd.Round, reverse: false}
	var files spillFiles
	if rt.job.Mode == Streaming {
		ctx.streamCh = p.streamChan(cmd.Task)
		ctx.streamPart = cmd.Task
	} else if owner := rt.ownerProc(cmd.Task); owner == p.idx {
		// Data-centric scheduling put us on the process that already holds
		// the partition: a purely local read.
		it, fs, err := p.merge(fwd).iterator(cmd.Task)
		if err != nil {
			rt.taskFailed(p, err)
			return
		}
		if p.tb != nil {
			p.tb.Instant(taskTID(cmd.Task, false), "rpl.merge", "merge",
				map[string]any{"partition": cmd.Task, "round": cmd.Round})
		}
		ctx.it, files = it, fs
	} else {
		// Ablation path: the partition lives elsewhere; pull it over the
		// network as Hadoop's reducers do.
		it, err := p.fetchPartition(cmd.Round, cmd.Task, false, owner)
		if err != nil {
			rt.taskFailed(p, err)
			return
		}
		ctx.it = it
	}
	err := rt.runUser(rt.job.ATask, ctx)
	if err == nil && rt.job.Mode == Iteration {
		err = ctx.flushSends()
	}
	if rt.job.Mode != Streaming && rt.ownerProc(cmd.Task) == p.idx {
		files.Close()
		p.dropMerge(fwd, cmd.Task)
	}
	if err != nil {
		rt.taskFailed(p, err)
		return
	}
	if rt.job.Progress != nil {
		rt.job.Progress.FinishA()
	}
	if p.tb != nil {
		p.tb.Span(taskTID(cmd.Task, false), fmt.Sprintf("A%d", cmd.Task), "task", tstart,
			map[string]any{"round": cmd.Round, "received": ctx.received})
	}
	rt.reportEvent(p, eventMsg{Type: "aDone", Task: cmd.Task, Round: cmd.Round, Records: ctx.received, Counters: ctx.takeCounters()})
}

// runUser invokes a user task function under the busy tracker, converting
// panics into job failures rather than crashing the runtime. It adds the
// records the call sent to the job total once, on success, error and
// panic alike (ctx.sent persists across Iteration rounds, hence the base).
func (rt *Runtime) runUser(fn TaskFunc, ctx *Context) (err error) {
	if rt.job.Busy != nil {
		defer rt.job.Busy.Track()()
	}
	base := ctx.sent
	defer func() {
		rt.sent.Add(ctx.sent - base)
		if r := recover(); r != nil {
			err = fmt.Errorf("core: task panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// taskFailed reports a task error to mpidrun (and fails fast locally).
func (rt *Runtime) taskFailed(p *process, err error) {
	rt.failAt(p.idx, err)
	rt.reportEvent(p, eventMsg{Type: "error", Err: err.Error(), ErrCode: errCodeOf(err)})
}

// reloadChunks re-injects complete checkpoint chunks into the shuffle: the
// data reaches its A-side partitions again without recomputation.
func (rt *Runtime) reloadChunks(p *process, cmd ctrlMsg) {
	var total int64
	for _, path := range cmd.Paths {
		n, err := readChunk(path, func(payload []byte) error {
			partition, reverse, valueChunk, task, idx, records, err := decodePayload(payload)
			if err != nil {
				return err
			}
			return p.submit(sendItem{
				task:      task,
				partition: partition,
				reverse:   reverse,
				// Chunk payloads carry their own (partition, task, idx)
				// header followed by record bytes; wrap the records into a
				// framed buffer for the zero-copy transmit path.
				data:         rt.reloadFrame(records),
				idx:          idx,
				prepared:     true,
				noCheckpoint: true,
				valueChunk:   valueChunk,
			}, cmd.Round)
		})
		if err != nil {
			rt.taskFailed(p, err)
			return
		}
		total += n
	}
	rt.reportEvent(p, eventMsg{Type: "reloadDone", Records: total})
}

// reloadFrame wraps a checkpoint chunk entry's records into a framed
// buffer and charges them to the memory gauge, as SendRecord charges the
// records it buffers; transmit gives them back.
func (rt *Runtime) reloadFrame(records []byte) []byte {
	if rt.job.Mem != nil {
		rt.job.Mem.Add(int64(len(records)))
	}
	return append(getFrame(), records...)
}

// rejoinRank patches this survivor's transport directory for a respawned
// rank, then runs the rejoin barrier: once ReplaceRank returns no more
// frames are dropped on the dead rank, and the seal-all cpSeal pushed
// through the pipeline commits every open chunk — including any frames
// dropped or lost while the rank was down. The master scans for
// replayable chunks only after every survivor has acknowledged.
func (rt *Runtime) rejoinRank(p *process, cmd ctrlMsg) {
	if err := rt.world.ReplaceRank(cmd.Rank, cmd.Addr); err != nil {
		rt.taskFailed(p, err)
		return
	}
	// The replacement starts with empty queues, so its full credit window is
	// the correct sender-side view. Refilling also unblocks a transmit stage
	// stalled on credits the dead incarnation can no longer grant — which
	// must happen before flushQueue below can make progress.
	p.resetCredits(cmd.Rank)
	if err := p.submit(sendItem{task: -1, cpSeal: true}, cmd.Round); err != nil {
		rt.taskFailed(p, err)
		return
	}
	if err := p.flushQueue(); err != nil {
		rt.taskFailed(p, err)
		return
	}
	rt.reportEvent(p, eventMsg{Type: "rejoinDone"})
}

// replayChunks re-sends committed chunk frames after a partial restart.
// ReplayOwner >= 0 narrows the replay to frames whose partition that
// process owns (the frames the dead rank may never have merged); -1
// replays every frame (chunks of the dead rank's own tasks, whose
// deliveries anywhere are uncertain). Receivers drop duplicates by
// (task, partition, idx), so over-replaying is safe.
func (rt *Runtime) replayChunks(p *process, cmd ctrlMsg) {
	var total int64
	for _, path := range cmd.Paths {
		_, err := readChunk(path, func(payload []byte) error {
			partition, reverse, valueChunk, task, idx, records, err := decodePayload(payload)
			if err != nil {
				return err
			}
			if cmd.ReplayOwner >= 0 && rt.ownerProc(partition) != cmd.ReplayOwner {
				return nil
			}
			// Blob continuation frames carry raw value bytes, not framed
			// records — nothing to count; receivers dedup them by idx like
			// any other frame and the store is offset-idempotent besides.
			var nrec int64
			if !valueChunk {
				nrec, err = kv.CountRecords(records)
				if err != nil {
					return err
				}
				total += nrec
			}
			return p.submit(sendItem{
				task:         task,
				partition:    partition,
				reverse:      reverse,
				data:         rt.reloadFrame(records),
				records:      nrec,
				idx:          idx,
				prepared:     true,
				noCheckpoint: true,
				valueChunk:   valueChunk,
			}, cmd.Round)
		})
		if err != nil {
			rt.taskFailed(p, err)
			return
		}
	}
	if err := p.flushQueue(); err != nil {
		rt.taskFailed(p, err)
		return
	}
	rt.ctrs.partialReplayed.Add(total)
	rt.reportEvent(p, eventMsg{Type: "replayDone", Records: total})
}
