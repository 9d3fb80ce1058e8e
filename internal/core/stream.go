package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/kv"
	"datampi/internal/metrics"
	"datampi/internal/trace"
)

// StreamJob describes a resident streaming service over the Streaming
// mode: long-running source adapters feed COMM_BIPARTITE_O, records flow
// to the A side under credit-based flow control, and each A task runs an
// event-time window machine that fires windows as the watermark passes
// them, handing every completed window to Emit. RunStream starts the
// service and returns a handle with Stop / Drain / Resume / Wait; Job
// lowers it to a plain *Job for launchers that run the service across OS
// processes.
type StreamJob struct {
	Name string
	Conf Config

	// NumO is the number of source adapters; NumA the number of windowing
	// tasks (the partition count).
	NumO, NumA int
	// Procs / Slots as in Job. Streaming requires NumA <= Procs*Slots.
	Procs, Slots int

	// Window configures the event-time windows every A task maintains.
	Window WindowSpec

	// Source runs as each O task: a continuous adapter pushing events with
	// Emit and advancing its watermark with Watermark. It should return
	// once Stopping reports true (after StreamHandle.Stop); when it
	// returns, a final end-of-stream watermark flushes its share of every
	// open window.
	Source func(sc *SourceContext) error

	// Emit receives every fired window. A tasks fire concurrently, so Emit
	// must be safe for concurrent calls; calls for one A task arrive in
	// window-start order. A deterministic Source replayed after a restart
	// re-fires byte-identical windows, so a sink that writes each window
	// atomically and skips ones it already wrote gets exactly-once output.
	Emit func(fw FiredWindow) error

	// SpillDisks enables spilling window state past Conf.MemCacheBytes,
	// like Job.SpillDisks does for the batch merge state.
	SpillDisks []*diskio.Disk

	// Instrumentation (optional), as in Job.
	Busy     *metrics.BusyTracker
	Mem      *metrics.Gauge
	Progress *metrics.PhaseProgress
	Trace    *trace.Tracer
}

// streamControl is the shared state between a StreamHandle and the task
// closures of a locally-run StreamJob.
type streamControl struct {
	stop     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	paused   bool
	resumeCh chan struct{} // non-nil while paused; closed by Resume
	parked   int           // sources blocked at the pause gate
	live     int           // sources currently running

	// ctrs is stored by the first source to run, giving Drain sight of the
	// runtime's stream.events.in/out balance.
	ctrs atomic.Pointer[runtimeCounters]
}

// build lowers the StreamJob to a Job plus the control handle its
// closures observe.
func (sj *StreamJob) build() (*Job, *streamControl, error) {
	if sj.Source == nil || sj.Emit == nil {
		return nil, nil, errors.New("core: StreamJob needs both Source and Emit")
	}
	if sj.Conf.Combine != nil {
		// The prepare stage sorts a combined frame by key, which moves the
		// watermarks (nil key) ahead of the events sent before them: the
		// window machine would then drop those events as late.
		return nil, nil, errors.New("core: StreamJob does not support Conf.Combine: " +
			"combining sorts each frame by key, moving watermarks ahead of earlier events")
	}
	if err := sj.Window.normalize(); err != nil {
		return nil, nil, err
	}
	spec := sj.Window
	emit := sj.Emit
	source := sj.Source
	ctl := &streamControl{stop: make(chan struct{})}
	j := &Job{
		Name:  sj.Name,
		Mode:  Streaming,
		Conf:  sj.Conf,
		NumO:  sj.NumO,
		NumA:  sj.NumA,
		Procs: sj.Procs,
		Slots: sj.Slots,
		OTask: func(ctx *Context) error {
			ctl.ctrs.CompareAndSwap(nil, ctx.proc.rt.ctrs)
			ctl.mu.Lock()
			ctl.live++
			ctl.mu.Unlock()
			defer func() {
				ctl.mu.Lock()
				ctl.live--
				ctl.mu.Unlock()
			}()
			ctx.wmSeal = true
			sc := &SourceContext{ctx: ctx, ctl: ctl, spec: spec, wm: math.MinInt64}
			if err := source(sc); err != nil {
				return err
			}
			// End-of-stream watermark: this source promises no more events,
			// releasing its share of every open window downstream. It
			// bypasses the pause gate — shutdown outranks Drain.
			return sc.broadcastWatermark(math.MaxInt64)
		},
		ATask: func(ctx *Context) error {
			ws := newWindowState(ctx, spec)
			for {
				rec, ok, err := ctx.RecvRecord()
				if err != nil {
					return err
				}
				if !ok {
					return ws.flushAll(emit)
				}
				if err := ws.observe(rec, emit); err != nil {
					return err
				}
			}
		},
		SpillDisks: sj.SpillDisks,
		Busy:       sj.Busy,
		Mem:        sj.Mem,
		Progress:   sj.Progress,
		Trace:      sj.Trace,
	}
	return j, ctl, nil
}

// Job lowers the StreamJob to a plain *Job, for launchers that construct
// the same job in every worker OS process (proc-mode mpidrun). The
// returned job has no attached handle: resident control (Stop/Drain)
// applies to RunStream; proc-mode sources bound themselves.
func (sj *StreamJob) Job() (*Job, error) {
	j, _, err := sj.build()
	return j, err
}

// SourceContext is a source adapter's handle: emit events, advance the
// watermark, observe shutdown.
type SourceContext struct {
	ctx  *Context
	ctl  *streamControl
	spec WindowSpec
	wm   int64

	venc []byte // wire-encoding scratch, reused across Emit calls
}

// Rank returns the source's rank within COMM_BIPARTITE_O.
func (sc *SourceContext) Rank() int { return sc.ctx.Rank() }

// NumSources returns the number of source adapters (COMM_BIPARTITE_O size).
func (sc *SourceContext) NumSources() int { return sc.ctx.CommSize(CommO) }

// NumPartitions returns the number of A-side windowing tasks.
func (sc *SourceContext) NumPartitions() int { return sc.ctx.CommSize(CommA) }

// AddCounter increments a named user counter, as Context.AddCounter.
func (sc *SourceContext) AddCounter(name string, delta int64) { sc.ctx.AddCounter(name, delta) }

// Stopping reports whether StreamHandle.Stop was called: the source
// should finish its current work and return.
func (sc *SourceContext) Stopping() bool {
	select {
	case <-sc.ctl.stop:
		return true
	default:
		return false
	}
}

// Done returns a channel closed by StreamHandle.Stop, for select-based
// sources.
func (sc *SourceContext) Done() <-chan struct{} { return sc.ctl.stop }

// Emit sends one event with the given event time. The event is routed by
// Conf.Partition on its key; its payload and event time travel to the
// owning A task's window machine. Emit blocks while the service is
// drained (StreamHandle.Drain) and while credit-based flow control has no
// window toward the destination.
func (sc *SourceContext) Emit(key, payload []byte, at time.Time) error {
	if err := sc.pauseGate(); err != nil {
		return err
	}
	sc.venc = appendStreamEvent(sc.venc[:0], at.UnixNano(), payload)
	return sc.ctx.SendRecord(kv.Record{Key: key, Value: sc.venc})
}

// Watermark promises that this source will emit no further event with a
// time before t, releasing downstream windows up to it. Regressions are
// ignored — the watermark is monotonic per source.
//
// The watermark is also when the source's send buffers seal: once it
// crosses a window deadline or a multiple of Conf.FlushInterval of event
// time, everything emitted so far is sent. Framing is thus a function of
// the emitted sequence alone, so a replay after a restart frames its
// records exactly like the original run.
func (sc *SourceContext) Watermark(t time.Time) error {
	if err := sc.pauseGate(); err != nil {
		return err
	}
	return sc.broadcastWatermark(t.UnixNano())
}

// broadcastWatermark sends the watermark to every A partition. It rides
// the ordinary record path (sendRecordTo), so flow control, counters,
// checkpointing and replay treat it like any event. When the watermark
// crosses a seal point it then drains the SPL, so a window that this
// watermark releases downstream has its events on the wire. A replacement
// skipping its checkpointed prefix still advances sc.wm here; its SPL is
// empty while it skips, so those drains send nothing.
func (sc *SourceContext) broadcastWatermark(wm int64) error {
	if wm <= sc.wm {
		return nil
	}
	prev := sc.wm
	sc.wm = wm
	sc.venc = appendStreamWatermark(sc.venc[:0], wm, sc.ctx.task)
	rec := kv.Record{Value: sc.venc}
	for p := 0; p < sc.ctx.numDest(); p++ {
		if err := sc.ctx.sendRecordTo(p, rec); err != nil {
			return err
		}
	}
	if sealCrossed(&sc.spec, sc.ctx.job.Conf.FlushInterval, prev, wm) {
		return sc.ctx.drainSPL()
	}
	return nil
}

// sealCrossed reports whether a source watermark moving from prev to wm
// passes a seal point: a window deadline s+Size+AllowedLateness, for s a
// multiple of Slide (the grid windowState.addEvent uses, and the
// watermark at which the window fires), or a multiple of flush of event
// time. The first watermark (prev = MinInt64) always seals.
func sealCrossed(spec *WindowSpec, flush time.Duration, prev, wm int64) bool {
	if prev == math.MinInt64 {
		return true
	}
	off := satAdd(int64(spec.Size), int64(spec.AllowedLateness))
	slide := int64(spec.Slide)
	if floorDiv(satAdd(wm, -off), slide) > floorDiv(satAdd(prev, -off), slide) {
		return true
	}
	return floorDiv(wm, int64(flush)) > floorDiv(prev, int64(flush))
}

// pauseGate parks the source while the service is drained. Before
// blocking it drains the task's send buffers, so everything emitted so
// far reaches its consumer — that is what lets Drain wait for the
// in/out balance. A Stop unparks the source (shutdown outranks Drain).
func (sc *SourceContext) pauseGate() error {
	for {
		sc.ctl.mu.Lock()
		if !sc.ctl.paused {
			sc.ctl.mu.Unlock()
			return nil
		}
		ch := sc.ctl.resumeCh
		sc.ctl.parked++
		sc.ctl.mu.Unlock()
		err := sc.ctx.drainSPL()
		if err == nil {
			select {
			case <-ch:
			case <-sc.ctl.stop:
			case <-sc.ctx.proc.rt.aborted:
				err = sc.ctx.proc.rt.err()
			}
		}
		sc.ctl.mu.Lock()
		sc.ctl.parked--
		sc.ctl.mu.Unlock()
		if err != nil {
			return err
		}
		select {
		case <-sc.ctl.stop:
			return nil // let the source observe Stopping and finish
		default:
		}
	}
}

// StreamHandle controls a resident streaming service started by
// RunStream.
type StreamHandle struct {
	ctl  *streamControl
	done chan struct{}
	res  *Result
	err  error
}

// RunStream starts the service and returns immediately; the job runs
// until every source returns (typically after Stop).
func RunStream(sj *StreamJob, opts ...RunOption) (*StreamHandle, error) {
	j, ctl, err := sj.build()
	if err != nil {
		return nil, err
	}
	h := &StreamHandle{ctl: ctl, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = Run(j, opts...)
	}()
	return h, nil
}

// Stop asks every source to finish: Stopping flips true, Done closes, and
// parked sources unblock. The service then drains naturally — remaining
// events deliver, end-of-stream watermarks flush every window — and Wait
// returns.
func (h *StreamHandle) Stop() { h.ctl.stopOnce.Do(func() { close(h.ctl.stop) }) }

// Wait blocks until the service has shut down and returns its result.
func (h *StreamHandle) Wait() (*Result, error) {
	<-h.done
	return h.res, h.err
}

// Drain pauses the service without dropping anything: sources block at
// their next Emit/Watermark after flushing their send buffers, and Drain
// returns once every running source is parked and every record emitted so
// far has been consumed downstream (stream.events.in == stream.events.out).
// The graceful-reconfiguration primitive: at return, no event is in
// flight anywhere, and nothing moves until Resume.
func (h *StreamHandle) Drain() error {
	h.ctl.mu.Lock()
	if !h.ctl.paused {
		h.ctl.paused = true
		h.ctl.resumeCh = make(chan struct{})
	}
	h.ctl.mu.Unlock()
	for {
		select {
		case <-h.done:
			// The service finished while draining: trivially quiescent.
			return h.err
		default:
		}
		h.ctl.mu.Lock()
		quiet := h.ctl.parked == h.ctl.live
		h.ctl.mu.Unlock()
		if quiet {
			if ctrs := h.ctl.ctrs.Load(); ctrs == nil ||
				ctrs.streamEventsIn.Load() == ctrs.streamEventsOut.Load() {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Resume unblocks a drained service.
func (h *StreamHandle) Resume() {
	h.ctl.mu.Lock()
	if h.ctl.paused {
		h.ctl.paused = false
		close(h.ctl.resumeCh)
		h.ctl.resumeCh = nil
	}
	h.ctl.mu.Unlock()
}

// String implements fmt.Stringer for debugging.
func (h *StreamHandle) String() string {
	h.ctl.mu.Lock()
	defer h.ctl.mu.Unlock()
	return fmt.Sprintf("StreamHandle{paused=%v parked=%d live=%d}", h.ctl.paused, h.ctl.parked, h.ctl.live)
}
