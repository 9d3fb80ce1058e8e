package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"datampi"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// stream_agg: keyed events into 50 ms tumbling event-time windows,
// aggregated per key by a resident StreamJob.
//
// The paced phases are an OPEN loop. Each source walks an absolute
// schedule; an event's event time, and the stamp latency is measured
// from, is the instant it was DUE, not the instant it left. When the
// runtime stalls a source (credits exhausted), the events behind it go
// out late but keep their due stamps, so the wait a stall imposes on
// later events is counted. How late the generator itself ran is reported
// beside the latency; a generator that cannot hold its schedule voids the
// phase.
//
// The sources ARE the generator: a StreamJob source is a goroutine the
// runtime starts, and a separate feeder in front of it would put four
// busy goroutines on the reference box's two cores.
//
// The saturation jobs of the traced run are a CLOSED loop: the same job
// with no pacing, a fixed number of events on a synthetic event-time axis,
// timed from RunStream to Wait.

const (
	streamSources = 2
	streamParts   = 2
	streamWindow  = 50 * time.Millisecond
	streamFlush   = 5 * time.Millisecond
	// wmEvery is the event-time interval between a source's watermarks.
	// One per event would double the record count on the wire.
	wmEvery = time.Millisecond
	// saturationEvents is one saturation job; its event-time axis runs at
	// a nominal 1M events/s, so it spans 40 windows.
	saturationEvents = 2_000_000
	// startLead is how far ahead of RunStream the schedule begins: long
	// enough for the job to start, so the first events are not born late.
	startLead = 20 * time.Millisecond
	// paceTick is how often a paced source wakes to emit what is due.
	paceTick = 500 * time.Microsecond
	// streamPhase is the length of one paced job of the untraced run, and
	// streamPhaseGap what starting and draining one costs on top.
	streamPhase    = 2 * time.Second
	streamPhaseGap = 100 * time.Millisecond
	// lateLimitMS voids a paced phase whose generator ran later than this
	// at its 95th percentile: beyond it the numbers describe the generator.
	lateLimitMS = 5.0
)

// eventEpoch is event time zero, a multiple of the window length.
var eventEpoch = time.Unix(1_000_000_000, 0)

var streamKeyTable = func() [][]byte {
	t := make([][]byte, streamKeys)
	for i := range t {
		t[i] = []byte(fmt.Sprintf("k%02d", i))
	}
	return t
}()

// firedWin is one emitted window as the sink saw it.
type firedWin struct {
	start  int64 // window start, ns
	counts [streamKeys]int32
	at     int64   // emit time, ns
	latMS  float64 // emit time minus the latest due stamp inside it
}

// phaseResult is what one streaming job produced.
type phaseResult struct {
	rate     int // offered events/s; 0 = saturation
	offered  int64
	elapsed  time.Duration // RunStream to Wait
	firstOut time.Duration // RunStream to the first window emitted
	emitSpan time.Duration // first due time to the last source finishing
	planned  time.Duration // the schedule's length
	lateMS   []float64     // generator lateness, sampled
	latMS    []float64     // per fired window and partition, edges trimmed
	windows  int           // windows checked against the oracle
	badWins  int           // of those, missing, duplicated or miscounted
	res      *datampi.Result
}

// delivered is the share of the offered rate the phase actually sustained.
func (p *phaseResult) delivered() float64 {
	if p.emitSpan <= p.planned || p.emitSpan == 0 {
		return 1
	}
	return float64(p.planned) / float64(p.emitSpan)
}

// runPhase runs one streaming job: paced at rate events/s for dur, or,
// with rate 0, `events` unpaced events.
func runPhase(seed int64, rate int, dur time.Duration, events int, tr *trace.Tracer) (*phaseResult, error) {
	paced := rate > 0
	perSource := events / streamSources
	interval := time.Microsecond * streamSources // saturation: nominal 1M events/s of event time
	if paced {
		interval = time.Duration(int64(time.Second) * streamSources / int64(rate))
		perSource = int(dur / interval)
	}
	// Wall clock and event time are separate axes. The schedule starts a
	// little ahead of now; event time starts at a fixed window boundary, so
	// which window an event falls in depends on the seed alone.
	t0 := time.Now().Add(startLead)
	nWin := int(time.Duration(perSource)*interval/streamWindow) + 2

	// Each source tallies what it offers per (window, key): the oracle.
	expect := make([][][streamKeys]int32, streamSources)
	late := make([][]float64, streamSources)
	done := make([]time.Time, streamSources)
	fired := make([][]firedWin, streamParts)

	sj := &datampi.StreamJob{
		Name: "stream_agg",
		Conf: datampi.Config{
			KeyCodec:      datampi.BytesCodec,
			ValueCodec:    datampi.BytesCodec,
			FlushInterval: streamFlush,
		},
		NumO: streamSources, NumA: streamParts, Procs: benchProcs, Slots: benchSlots,
		Window: datampi.WindowSpec{Size: streamWindow},
		Trace:  tr,
		Source: func(sc *datampi.SourceContext) error {
			s := sc.Rank()
			exp := make([][streamKeys]int32, nWin)
			offset := time.Duration(s) * interval / streamSources // interleave the sources
			var stamp [8]byte
			lastWM := time.Duration(-1)
			var pace *pacer
			if paced {
				var err error
				if pace, err = newPacer(paceTick); err != nil {
					return err
				}
				defer pace.close()
			}
			for i := 0; i < perSource; i++ {
				at := time.Duration(i)*interval + offset
				due, evt := t0.Add(at), eventEpoch.Add(at)
				if paced {
					if err := pace.until(due); err != nil {
						return err
					}
					if i%64 == 0 {
						late[s] = append(late[s], float64(time.Since(due))/float64(time.Millisecond))
					}
				}
				k := streamKeyOf(seed, s, i)
				binary.BigEndian.PutUint64(stamp[:], uint64(due.UnixNano()))
				if err := sc.Emit(streamKeyTable[k], stamp[:], evt); err != nil {
					return err
				}
				exp[int(at/streamWindow)][k]++
				if at/wmEvery != lastWM {
					lastWM = at / wmEvery
					if err := sc.Watermark(evt); err != nil {
						return err
					}
				}
			}
			expect[s], done[s] = exp, time.Now()
			return nil
		},
		// A tasks fire concurrently, but each appends only to its own slice.
		Emit: func(fw datampi.FiredWindow) error {
			now := time.Now().UnixNano()
			w := firedWin{start: fw.Start.UnixNano(), at: now}
			var newest int64
			for _, g := range fw.Groups {
				k := int(g.Key[1]-'0')*10 + int(g.Key[2]-'0')
				w.counts[k] += int32(len(g.Values))
				for _, v := range g.Values {
					if st := int64(binary.BigEndian.Uint64(v)); st > newest {
						newest = st
					}
				}
			}
			w.latMS = float64(now-newest) / float64(time.Millisecond)
			fired[fw.Task] = append(fired[fw.Task], w)
			return nil
		},
	}
	start := time.Now()
	h, err := datampi.RunStream(sj, runOpts...)
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	p := &phaseResult{
		rate:    rate,
		offered: int64(perSource) * streamSources,
		elapsed: time.Since(start),
		planned: time.Duration(perSource) * interval,
		res:     res,
	}
	for _, ws := range fired {
		if len(ws) == 0 {
			continue
		}
		if d := time.Duration(ws[0].at - start.UnixNano()); p.firstOut == 0 || d < p.firstOut {
			p.firstOut = d
		}
	}
	for s := range done {
		if d := done[s].Sub(t0); d > p.emitSpan {
			p.emitSpan = d
		}
		p.lateMS = append(p.lateMS, late[s]...)
	}
	p.check(nWin, expect, fired)
	return p, nil
}

// check holds every fired window against the oracle: each (window,
// partition) that was offered events fires exactly once with exactly the
// offered per-key counts — nothing lost, duplicated or dropped late.
// Latencies of the first and last window are trimmed: the first includes
// connection set-up, the last is flushed by end-of-stream, not by a
// watermark.
func (p *phaseResult) check(nWin int, expect [][][streamKeys]int32, fired [][]firedWin) {
	type cell struct {
		want  [streamKeys]int32
		fires int
		ok    bool
	}
	cells := make([][]cell, streamParts)
	for part := range cells {
		cells[part] = make([]cell, nWin)
	}
	lastWin := int((p.planned - 1) / streamWindow) // the last window holding events
	partOf := make([]int, streamKeys)
	for k := range partOf {
		partOf[k] = kv.DefaultPartition(streamKeyTable[k], nil, streamParts)
	}
	for _, exp := range expect {
		for w := range exp {
			for k, n := range exp[w] {
				cells[partOf[k]][w].want[k] += n
			}
		}
	}
	for part, ws := range fired {
		for _, fw := range ws {
			w := int(time.Duration(fw.start-eventEpoch.UnixNano()) / streamWindow)
			if w < 0 || w >= nWin {
				p.windows++
				p.badWins++ // a window nobody offered events to
				continue
			}
			c := &cells[part][w]
			c.fires++
			c.ok = c.fires == 1 && fw.counts == c.want
			if w > 0 && w < lastWin {
				p.latMS = append(p.latMS, fw.latMS)
			}
		}
	}
	for part := range cells {
		for w := range cells[part] {
			c := &cells[part][w]
			if c.want == ([streamKeys]int32{}) && c.fires == 0 {
				continue
			}
			p.windows++
			if !c.ok {
				p.badWins++
			}
		}
	}
}

// account folds a phase into the run's attempted/failed totals. A paced
// phase that did not sustain its offered rate, or whose generator ran
// late, fails as a whole: its latencies describe a backlog or the
// generator, not the runtime at that rate.
func (p *phaseResult) account(out *runResult, what string) {
	out.Attempted += p.windows
	switch {
	case p.rate > 0 && p.delivered() < 0.99:
		out.Failed += p.windows
		out.note("%s: delivered %.3f of the offered rate; all %d windows void", what, p.delivered(), p.windows)
	case p.rate > 0 && percentile(p.lateMS, 95) > lateLimitMS:
		out.Failed += p.windows
		out.note("%s: generator ran %.2f ms late at p95; all %d windows void", what, percentile(p.lateMS, 95), p.windows)
	case p.badWins > 0:
		out.Failed += p.badWins
		out.note("%s: %d of %d windows missing, duplicated or miscounted", what, p.badWins, p.windows)
	}
	if in, outN := p.res.RuntimeCounters["stream.events.in"], p.res.RuntimeCounters["stream.events.out"]; in != outN {
		out.fail("%s: stream.events.in %d != stream.events.out %d", what, in, outN)
	}
}

// setupStream is what a user pays before the first window that counts: a
// short paced phase that starts the job once and warms the process. (A
// stream has no input to generate; nearly all of this is the phase's own
// 300 ms.)
func setupStream(seed int64) error {
	_, err := runPhase(seed, streamPacedEv, 300*time.Millisecond, 0, nil)
	return err
}

// runStream is one invocation of stream_agg: the window cut into paced
// phases, each a job of its own.
//
// Why several short jobs and not one long one: a job's median latency
// depends on how its sources' flush tickers happen to fall against the
// window boundaries, which is fixed when the job starts. Between eight
// 2-second jobs the median moves by 13 %; pooled, their windows give a
// median that repeats within 3 %. Each job also adds a sample of
// start-to-first-window.
//
// Nothing here is calibrated by the yardstick: this far below the knee
// the latencies are made of the flush interval and timer wake-ups, not of
// processor time. The saturation rate, which is, moved to the traced run
// (stream.max_ev_s): two runs of the same code disagree on it by more than
// any bound this file may state.
func runStream(cfg runConfig) (*runResult, error) {
	out := &runResult{Workload: "stream_agg", Traced: cfg.traced, Metrics: map[string]metricValue{}}
	if cfg.traced {
		return out, tracedStream(cfg, out)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := setupStream(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// A fixed number of phases, so that the events offered depend on the
	// arguments alone.
	phases := max(2, int(cfg.seconds/(streamPhase+streamPhaseGap)))
	var lat, first []float64
	var span time.Duration
	out.Work = map[string]int64{}
	for i := 0; i < phases; i++ {
		p, err := runPhase(cfg.seed+int64(i), streamPacedEv, streamPhase, 0, nil)
		if err != nil {
			return nil, err
		}
		p.account(out, fmt.Sprintf("paced 100k, phase %d", i))
		lat = append(lat, p.latMS...)
		first = append(first, p.firstOut.Seconds())
		span += p.emitSpan
		out.Work["paced.events.offered"] += p.offered
		out.Work["paced.events.in"] += p.res.RuntimeCounters["stream.events.in"]
		out.Work["paced.events.out"] += p.res.RuntimeCounters["stream.events.out"]
	}
	if len(lat) == 0 {
		return out, errors.New("the paced phases fired no window")
	}
	out.set("setup_s", median(setups), len(setups))
	out.set("result_p50_ms", median(lat), len(lat))
	out.set("result_tail_ms", percentile(lat, tailStream), len(lat))
	out.set("records_s", float64(out.Work["paced.events.offered"])/span.Seconds(), phases)
	// A resident stream keeps no checkpoint: after a crash the job is
	// started again, and is back once its first window is out.
	out.set("recover_s", median(first), len(first))
	if highestPercentile(len(lat)) < tailStream {
		out.note("result_tail_ms: only %d windows; p%.0f has fewer than 10 samples beyond it", len(lat), tailStream)
	}
	return out, nil
}

// tracedStream is the traced invocation: the 100k phase untraced and
// traced (overhead), the 400k phase traced (where queueing starts), three
// saturation jobs for the highest rate and the wire counters, and the
// probes.
func tracedStream(cfg runConfig, out *runResult) error {
	rec := newRecorder("stream_agg")
	sp := rec.begin("bench.setup", nil)
	err := setupStream(cfg.seed)
	sp.end()
	if err != nil {
		return err
	}
	phase := func(rate int, dur time.Duration, events int, traced bool) (*phaseResult, error) {
		var tr *trace.Tracer
		var sp *span
		if traced {
			tr, sp = rec.tracer(), rec.begin("bench.job", nil)
		}
		p, err := runPhase(cfg.seed, rate, dur, events, tr)
		sp.end()
		return p, err
	}
	base, err := phase(streamPacedEv, cfg.seconds/4, 0, false)
	if err != nil {
		return err
	}
	base.account(out, "paced 100k untraced")
	r100, err := phase(streamPacedEv, cfg.seconds/4, 0, true)
	if err != nil {
		return err
	}
	r100.account(out, "paced 100k traced")
	// 400k is reported, not judged: near the knee the box may not sustain
	// it, and then the interesting number is by how much.
	r400, err := phase(4*streamPacedEv, cfg.seconds/4, 0, true)
	if err != nil {
		return err
	}
	// Saturation: closed loop, timed from RunStream to Wait. The rate is the
	// median of three jobs, the wire counters are the last one's.
	var sat *phaseResult
	var satS []float64
	for i := 0; i < 3; i++ {
		if sat, err = phase(0, 0, saturationEvents, false); err != nil {
			return err
		}
		sat.account(out, fmt.Sprintf("saturation job %d", i))
		satS = append(satS, sat.elapsed.Seconds())
	}
	out.set("stream.max_ev_s", saturationEvents/median(satS), len(satS))

	setCounts(out, []*datampi.Result{sat.res})
	out.set("stream.credit_stalls.r100k", float64(base.res.RuntimeCounters["stream.credits.stalls"]), 1)
	out.set("stream.credit_stalls.r400k", float64(r400.res.RuntimeCounters["stream.credits.stalls"]), 1)
	out.set("stream.gen_late_p95_ms", percentile(base.lateMS, 95), len(base.lateMS))
	out.set("stream.delivered_share.r100k", base.delivered(), 1)
	out.set("stream.delivered_share.r400k", r400.delivered(), 1)
	out.set("stream.win_lat_p50_ms.r400k", median(r400.latMS), len(r400.latMS))
	out.set("stream.win_lat_p95_ms.r400k", percentile(r400.latMS, 95), len(r400.latMS))
	sustained := 0.0
	for _, p := range []*phaseResult{base, r400} {
		if p.delivered() >= 0.99 && percentile(p.latMS, 95) <= 25 {
			sustained = float64(p.rate)
		}
	}
	out.set("stream.sustained_rate_ev_s", sustained, 1)
	out.set("trace.overhead_pct", overheadPct(base.latMS, r100.latMS), len(r100.latMS))
	out.set("raw.result_p50_ms", median(base.latMS), len(base.latMS))
	y := newYardstick()
	// Nothing above is calibrated; the passes only say how fast the box was.
	for i := 0; i < 5; i++ {
		y.pace()
	}
	out.set("yard.pass_ms", median(y.passMS), len(y.passMS))
	y.account(out)

	evs := rec.tr.Events()
	wall := float64(r100.elapsed+r400.elapsed) / float64(time.Millisecond)
	setSpans(out, spanBusyMS(evs), 2, wall)
	out.set("trace.events", float64(len(evs)), 1)
	out.SelfMS = selfTimesMS(evs)
	setProbes(out, cfg.seed)
	out.set("core.peak_rss_mb", peakRSSMB(), 1)
	fillPerLayer(out)
	out.TraceFile, err = rec.writeTrace(cfg.outDir)
	return err
}
