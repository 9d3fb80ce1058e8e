package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/fault"
	"datampi/internal/kv"
)

// streamBase is the event-time epoch the tests build on: event time is
// data, so it needs no relation to the wall clock.
var streamBase = time.Unix(1_700_000_000, 0)

// collectEmit returns an Emit callback recording every fired window, plus
// the accessor for the recorded set.
func collectEmit() (func(FiredWindow) error, func() []FiredWindow) {
	var mu sync.Mutex
	var fired []FiredWindow
	emit := func(fw FiredWindow) error {
		mu.Lock()
		fired = append(fired, fw)
		mu.Unlock()
		return nil
	}
	get := func() []FiredWindow {
		mu.Lock()
		defer mu.Unlock()
		return append([]FiredWindow(nil), fired...)
	}
	return emit, get
}

var streamTransports = []struct {
	name string
	opts []RunOption
}{
	{"mem", nil},
	{"tcp", []RunOption{WithTCPTransport()}},
	{"shm", []RunOption{WithShmTransport()}},
}

// TestStreamWindowOracleMatrix runs four window configurations — tumbling
// and sliding, in-order and out-of-order arrivals — across all three
// transports, and checks every fired window against a sequential oracle
// that assigns each event to its windows directly. The sources keep their
// watermarks honest (lagging at least the disorder bound), so no event is
// late and the oracle is exact: same windows, same keys, same values.
func TestStreamWindowOracleMatrix(t *testing.T) {
	const numO, numA, perSource = 2, 2, 120
	step := 5 * time.Millisecond
	configs := []struct {
		name     string
		spec     WindowSpec
		disorder time.Duration
	}{
		{"tumbling-inorder", WindowSpec{Size: 100 * time.Millisecond}, 0},
		{"tumbling-ooo", WindowSpec{Size: 100 * time.Millisecond}, 40 * time.Millisecond},
		{"sliding-inorder", WindowSpec{Size: 100 * time.Millisecond, Slide: 25 * time.Millisecond}, 0},
		{"sliding-ooo-late", WindowSpec{Size: 100 * time.Millisecond, Slide: 50 * time.Millisecond,
			AllowedLateness: 20 * time.Millisecond}, 30 * time.Millisecond},
	}
	for _, cfg := range configs {
		for _, tr := range streamTransports {
			t.Run(cfg.name+"/"+tr.name, func(t *testing.T) {
				spec := cfg.spec
				if err := spec.normalize(); err != nil {
					t.Fatal(err)
				}
				// Generate each source's deterministic event sequence.
				type event struct {
					key, payload string
					ts           int64
				}
				seqs := make([][]event, numO)
				for src := 0; src < numO; src++ {
					rng := rand.New(rand.NewSource(int64(src)*7919 + 17))
					for i := 0; i < perSource; i++ {
						var jitter int64
						if cfg.disorder > 0 {
							jitter = rng.Int63n(int64(cfg.disorder))
						}
						seqs[src] = append(seqs[src], event{
							key:     fmt.Sprintf("k%d", rng.Intn(8)),
							payload: fmt.Sprintf("s%d-%d", src, i),
							ts:      streamBase.UnixNano() + int64(i)*int64(step) - jitter,
						})
					}
				}
				// Sequential oracle: every event lands in every window that
				// covers it, on the partition its key hashes to.
				want := map[string][]string{} // "task/start/key" -> payloads
				for _, seq := range seqs {
					for _, ev := range seq {
						part := kv.DefaultPartition([]byte(ev.key), nil, numA)
						size, slide := int64(spec.Size), int64(spec.Slide)
						for start := floorDiv(ev.ts, slide) * slide; start+size > ev.ts; start -= slide {
							id := fmt.Sprintf("%d/%d/%s", part, start, ev.key)
							want[id] = append(want[id], ev.payload)
						}
					}
				}
				emit, fired := collectEmit()
				sj := &StreamJob{
					Name:   "oracle",
					NumO:   numO,
					NumA:   numA,
					Procs:  2,
					Slots:  2,
					Window: cfg.spec,
					Source: func(sc *SourceContext) error {
						maxTs := int64(0)
						for _, ev := range seqs[sc.Rank()] {
							if err := sc.Emit([]byte(ev.key), []byte(ev.payload), time.Unix(0, ev.ts)); err != nil {
								return err
							}
							if ev.ts > maxTs {
								maxTs = ev.ts
							}
							if err := sc.Watermark(time.Unix(0, maxTs-int64(cfg.disorder))); err != nil {
								return err
							}
						}
						return nil
					},
					Emit: emit,
				}
				j, err := sj.Job()
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(j, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string][]string{}
				seen := map[string]bool{}
				for _, fw := range fired() {
					wid := fmt.Sprintf("%d/%d", fw.Task, fw.Start.UnixNano())
					if seen[wid] {
						t.Fatalf("window %s fired twice", wid)
					}
					seen[wid] = true
					for _, g := range fw.Groups {
						id := fmt.Sprintf("%d/%d/%s", fw.Task, fw.Start.UnixNano(), g.Key)
						for _, v := range g.Values {
							got[id] = append(got[id], string(v))
						}
					}
				}
				if len(got) != len(want) {
					t.Errorf("got %d (window,key) groups, want %d", len(got), len(want))
				}
				for id, wv := range want {
					gv := got[id]
					sort.Strings(wv)
					sort.Strings(gv)
					if fmt.Sprint(gv) != fmt.Sprint(wv) {
						t.Errorf("group %s: got %v want %v", id, gv, wv)
					}
				}
				for id := range got {
					if _, ok := want[id]; !ok {
						t.Errorf("unexpected group %s", id)
					}
				}
				if n := res.RuntimeCounters["stream.late.dropped"]; n != 0 {
					t.Errorf("honest watermarks dropped %d events as late", n)
				}
				if res.RuntimeCounters["stream.events.in"] != res.RuntimeCounters["stream.events.out"] {
					t.Errorf("events in/out imbalance: %d vs %d",
						res.RuntimeCounters["stream.events.in"], res.RuntimeCounters["stream.events.out"])
				}
			})
		}
	}
}

// TestStreamLateDropDeterministic uses a single source — whose own
// watermark IS the partition watermark, making lateness deterministic —
// to pin the late-record policy: an event behind every window it belongs
// to is dropped and counted.
func TestStreamLateDropDeterministic(t *testing.T) {
	base := streamBase.UnixNano()
	emit, fired := collectEmit()
	sj := &StreamJob{
		NumO: 1, NumA: 1, Procs: 1, Slots: 2,
		Window: WindowSpec{Size: 100 * time.Millisecond},
		Source: func(sc *SourceContext) error {
			on := func(err error) {
				if err != nil {
					t.Error(err)
				}
			}
			on(sc.Emit([]byte("a"), []byte("v1"), time.Unix(0, base+10e6)))
			on(sc.Watermark(time.Unix(0, base+500e6))) // fires [base, base+100ms)
			// 20ms is far behind the watermark: every window containing it
			// has fired, so it must be dropped.
			on(sc.Emit([]byte("a"), []byte("late"), time.Unix(0, base+20e6)))
			// 510ms is ahead of the watermark: accepted normally.
			on(sc.Emit([]byte("b"), []byte("v2"), time.Unix(0, base+510e6)))
			return nil
		},
		Emit: emit,
	}
	j, err := sj.Job()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.RuntimeCounters["stream.late.dropped"]; n != 1 {
		t.Errorf("stream.late.dropped = %d, want 1", n)
	}
	var values []string
	for _, fw := range fired() {
		for _, g := range fw.Groups {
			for _, v := range g.Values {
				values = append(values, string(v))
			}
		}
	}
	sort.Strings(values)
	if fmt.Sprint(values) != "[v1 v2]" {
		t.Errorf("emitted values %v, want [v1 v2]", values)
	}
}

// TestStreamSlidingFencedAdditions pins the partial-lateness policy for
// sliding windows: an event whose earlier windows already fired still
// enters the open ones, and each suppressed addition is counted as
// fenced.
func TestStreamSlidingFencedAdditions(t *testing.T) {
	base := streamBase.UnixNano()
	emit, fired := collectEmit()
	sj := &StreamJob{
		NumO: 1, NumA: 1, Procs: 1, Slots: 2,
		Window: WindowSpec{Size: 100 * time.Millisecond, Slide: 50 * time.Millisecond},
		Source: func(sc *SourceContext) error {
			on := func(err error) {
				if err != nil {
					t.Error(err)
				}
			}
			// ts=60ms belongs to windows [0,100) and [50,150).
			on(sc.Emit([]byte("a"), []byte("v1"), time.Unix(0, base+60e6)))
			// Watermark 120ms fires [0,100) but leaves [50,150) open.
			on(sc.Watermark(time.Unix(0, base+120e6)))
			// ts=70ms also belongs to both; [0,100) already fired (fenced),
			// [50,150) still accepts it.
			on(sc.Emit([]byte("a"), []byte("v2"), time.Unix(0, base+70e6)))
			return nil
		},
		Emit: emit,
	}
	j, err := sj.Job()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.RuntimeCounters["stream.windows.fenced"]; n != 1 {
		t.Errorf("stream.windows.fenced = %d, want 1", n)
	}
	if n := res.RuntimeCounters["stream.late.dropped"]; n != 0 {
		t.Errorf("stream.late.dropped = %d, want 0", n)
	}
	byWindow := map[int64][]string{}
	for _, fw := range fired() {
		for _, g := range fw.Groups {
			for _, v := range g.Values {
				byWindow[fw.Start.UnixNano()-base] = append(byWindow[fw.Start.UnixNano()-base], string(v))
			}
		}
	}
	if fmt.Sprint(byWindow[0]) != "[v1]" {
		t.Errorf("window [0,100ms): %v, want [v1]", byWindow[0])
	}
	got := byWindow[50e6]
	sort.Strings(got)
	if fmt.Sprint(got) != "[v1 v2]" {
		t.Errorf("window [50ms,150ms): %v, want [v1 v2]", got)
	}
}

// TestStreamBackpressureChaos is the bounded-memory proof: a deliberately
// slow A-side consumer, chaos on every link (delays, connection resets,
// mid-stream reorders), and a small credit window. The credit gate must
// keep the sender's outstanding records at or under the window while every
// event still arrives exactly once, on every transport.
func TestStreamBackpressureChaos(t *testing.T) {
	const numO, numA, perTask, window = 2, 2, 600, 64
	plan := &fault.Plan{Seed: 7}
	plan.Rules = append(plan.Rules,
		fault.Rule{Kind: fault.Delay, Src: fault.Any, Dst: fault.Any, Prob: 0.05, Latency: 2 * time.Millisecond},
		fault.Rule{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.02},
	)
	// Reorders are scoped to worker-worker pairs (the master's short
	// control-plane exchanges must stay ordered) and to mid-stream
	// sequence numbers: pair FIFO is what makes end markers trailing, so a
	// reorder that could swap the final data frame past its end marker
	// would fake data loss the real transports cannot produce. The tiny
	// SPLBytes below seals ~6-record frames, putting 50+ messages on every
	// worker pair — sequence 30 is genuinely mid-stream.
	for src := 0; src < 2; src++ {
		for dst := 0; dst < 2; dst++ {
			plan.Rules = append(plan.Rules, fault.Rule{
				Kind: fault.Reorder, Src: src, Dst: dst, Prob: 0.3, From: 2, To: 30,
			})
		}
	}
	for _, tr := range streamTransports {
		t.Run(tr.name, func(t *testing.T) {
			var mu sync.Mutex
			got := map[string]int{}
			job := &Job{
				Mode: Streaming,
				Conf: Config{SPLBytes: 64},
				NumO: numO, NumA: numA, Procs: 2, Slots: 2,
				OTask: func(ctx *Context) error {
					for i := 0; i < perTask; i++ {
						key := fmt.Sprintf("o%d-%d", ctx.Rank(), i)
						if err := ctx.SendRecord(kv.Record{Key: []byte(key), Value: []byte("x")}); err != nil {
							return err
						}
					}
					return nil
				},
				ATask: func(ctx *Context) error {
					for {
						rec, ok, err := ctx.RecvRecord()
						if err != nil {
							return err
						}
						if !ok {
							return nil
						}
						time.Sleep(150 * time.Microsecond) // stalled consumer
						mu.Lock()
						got[string(rec.Key)]++
						mu.Unlock()
					}
				},
			}
			job.hooks.creditWindow = window
			job.hooks.FaultPlan = plan
			res, err := Run(job, tr.opts...)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != numO*perTask {
				t.Errorf("received %d distinct keys, want %d", len(got), numO*perTask)
			}
			for k, n := range got {
				if n != 1 {
					t.Errorf("key %s delivered %d times", k, n)
				}
			}
			in, out := res.RuntimeCounters["stream.events.in"], res.RuntimeCounters["stream.events.out"]
			if in != int64(numO*perTask) || in != out {
				t.Errorf("events in=%d out=%d, want both %d", in, out, numO*perTask)
			}
			if max := res.RuntimeCounters["stream.credits.max.outstanding"]; max <= 0 || max > window {
				t.Errorf("stream.credits.max.outstanding = %d, want in (0, %d]", max, window)
			}
			if res.RuntimeCounters["stream.credits.stalls"] == 0 {
				t.Error("slow consumer never stalled the sender: flow control untested")
			}
			if res.RuntimeCounters["stream.credits.granted"] == 0 {
				t.Error("no credits granted")
			}
		})
	}
}

// TestStreamDrainResume exercises graceful reconfiguration: Drain parks
// every source and waits until nothing is in flight, Resume restarts the
// flow, Stop shuts the service down cleanly.
func TestStreamDrainResume(t *testing.T) {
	emit, fired := collectEmit()
	var emitted int64
	var mu sync.Mutex
	sj := &StreamJob{
		NumO: 2, NumA: 2, Procs: 2, Slots: 2,
		Window: WindowSpec{Size: 50 * time.Millisecond},
		Source: func(sc *SourceContext) error {
			i := 0
			for !sc.Stopping() {
				ts := streamBase.Add(time.Duration(i) * time.Millisecond)
				if err := sc.Emit([]byte(fmt.Sprintf("k%d", i%4)), []byte("v"), ts); err != nil {
					return err
				}
				if err := sc.Watermark(ts); err != nil {
					return err
				}
				mu.Lock()
				emitted++
				mu.Unlock()
				i++
				time.Sleep(200 * time.Microsecond)
			}
			return nil
		},
		Emit: emit,
	}
	h, err := RunStream(sj)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := h.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ctrs := h.ctl.ctrs.Load()
	if ctrs == nil {
		t.Fatal("no counters after drain: no source ever ran")
	}
	in1, out1 := ctrs.streamEventsIn.Load(), ctrs.streamEventsOut.Load()
	if in1 == 0 || in1 != out1 {
		t.Errorf("drained service has in=%d out=%d, want equal and nonzero", in1, out1)
	}
	// Nothing may move while drained.
	time.Sleep(5 * time.Millisecond)
	if in2 := ctrs.streamEventsIn.Load(); in2 != in1 {
		t.Errorf("events kept flowing while drained: %d -> %d", in1, in2)
	}
	h.Resume()
	time.Sleep(15 * time.Millisecond)
	if in3 := ctrs.streamEventsIn.Load(); in3 <= in1 {
		t.Errorf("no events after resume: still %d", in3)
	}
	h.Stop()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCounters["stream.events.in"] != res.RuntimeCounters["stream.events.out"] {
		t.Errorf("final imbalance: in=%d out=%d",
			res.RuntimeCounters["stream.events.in"], res.RuntimeCounters["stream.events.out"])
	}
	if len(fired()) == 0 {
		t.Error("no windows fired")
	}
}

// TestStreamWindowStateSpills bounds window-state memory: with a tiny
// cache every open window spills to disk and the fired window still
// carries every value.
func TestStreamWindowStateSpills(t *testing.T) {
	const events = 400
	disk, err := diskio.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	emit, fired := collectEmit()
	sj := &StreamJob{
		NumO: 1, NumA: 1, Procs: 1, Slots: 2,
		Conf:       Config{MemCacheBytes: 4 << 10},
		Window:     WindowSpec{Size: time.Second},
		SpillDisks: []*diskio.Disk{disk},
		Source: func(sc *SourceContext) error {
			for i := 0; i < events; i++ {
				payload := make([]byte, 64)
				copy(payload, fmt.Sprintf("p%d", i))
				ts := streamBase.Add(time.Duration(i) * time.Millisecond)
				if err := sc.Emit([]byte(fmt.Sprintf("k%d", i%4)), payload, ts); err != nil {
					return err
				}
			}
			return nil
		},
		Emit: emit,
	}
	j, err := sj.Job()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCounters["stream.state.spills"] == 0 {
		t.Error("window state never spilled under a 4KiB cache")
	}
	total := 0
	for _, fw := range fired() {
		for _, g := range fw.Groups {
			total += len(g.Values)
		}
	}
	if total != events {
		t.Errorf("fired windows carried %d values, want %d", total, events)
	}
	if res.RuntimeCounters["stream.windows.fired"] == 0 {
		t.Error("no windows fired")
	}
}

// TestStreamChanAfterEndOfStream pins the late-consumer case: an A task
// whose goroutine first asks for its stream channel after the receiver
// already processed the final end marker must drain what was delivered
// and then see the close, not block on a fresh channel nobody closes.
func TestStreamChanAfterEndOfStream(t *testing.T) {
	p := &process{streams: map[int]chan kv.Record{}}
	p.streamChan(0) <- kv.Record{Key: []byte("k")}
	p.closeStreams()
	// Everything is buffered or closed by now, so no receive may block.
	next := func(partition int) bool {
		select {
		case _, ok := <-p.streamChan(partition):
			return ok
		default:
			t.Fatalf("partition %d: stream channel blocks after end-of-stream", partition)
			return false
		}
	}
	if !next(0) {
		t.Fatal("late consumer lost the record delivered before end-of-stream")
	}
	if next(0) || next(1) {
		t.Fatal("late consumer received a record after end-of-stream")
	}
}
