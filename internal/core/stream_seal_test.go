package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datampi/internal/kv"
)

// TestStreamSealCrossing pins when a StreamJob source's watermark seals
// its send buffers: on crossing a window deadline s+Size+AllowedLateness
// (s on the Slide grid) or a multiple of the flush interval of event time.
func TestStreamSealCrossing(t *testing.T) {
	ms := int64(time.Millisecond)
	tumbling := WindowSpec{Size: 100 * time.Millisecond, Slide: 100 * time.Millisecond}
	sliding := WindowSpec{Size: 100 * time.Millisecond, Slide: 25 * time.Millisecond}
	late := WindowSpec{Size: 100 * time.Millisecond, Slide: 100 * time.Millisecond,
		AllowedLateness: 20 * time.Millisecond}
	const never = time.Hour // a flush interval no case reaches
	cases := []struct {
		name     string
		spec     WindowSpec
		flush    time.Duration
		prev, wm int64
		want     bool
	}{
		{"first watermark", tumbling, never, math.MinInt64, -5 * ms, true},
		{"first watermark near MinInt64", tumbling, never, math.MinInt64, math.MinInt64 + 1, true},
		{"near MinInt64 saturates, no deadline", tumbling, never, math.MinInt64 + 1, math.MinInt64 + 2, false},
		{"tumbling inside a window", tumbling, never, 0, 99 * ms, false},
		{"tumbling exactly on the deadline", tumbling, never, 0, 100 * ms, true},
		{"tumbling from the deadline on", tumbling, never, 100 * ms, 150 * ms, false},
		{"tumbling just reaching it", tumbling, never, 99 * ms, 100 * ms, true},
		{"tumbling past several", tumbling, never, 50 * ms, 350 * ms, true},
		{"negative on the deadline", tumbling, never, -150 * ms, -100 * ms, true},
		{"negative inside a window", tumbling, never, -199 * ms, -101 * ms, false},
		{"negative up to zero", tumbling, never, -ms, 0, true},
		{"sliding inside a slide", sliding, never, 0, 24 * ms, false},
		{"sliding on the slide grid", sliding, never, 0, 25 * ms, true},
		{"sliding between deadlines", sliding, never, 26 * ms, 49 * ms, false},
		{"lateness: window end is no deadline", late, never, 20 * ms, 100 * ms, false},
		{"lateness: before end+lateness", late, never, 100 * ms, 119 * ms, false},
		{"lateness: on end+lateness", late, never, 100 * ms, 120 * ms, true},
		{"lateness: negative deadline", late, never, -81 * ms, -80 * ms, true},
		{"flush: inside an interval", tumbling, 5 * time.Millisecond, ms, 4 * ms, false},
		{"flush: on a multiple", tumbling, 5 * time.Millisecond, 4 * ms, 5 * ms, true},
		{"flush: negative multiple", tumbling, 5 * time.Millisecond, -6 * ms, -5 * ms, true},
		{"flush: negative inside", tumbling, 5 * time.Millisecond, -9 * ms, -6 * ms, false},
		{"end of stream", tumbling, never, 100 * ms, math.MaxInt64, true},
		{"at MaxInt64, no deadline", tumbling, 5 * time.Millisecond, math.MaxInt64 - 1, math.MaxInt64, false},
	}
	for _, c := range cases {
		if got := sealCrossed(&c.spec, c.flush, c.prev, c.wm); got != c.want {
			t.Errorf("%s: sealCrossed(prev=%d, wm=%d) = %v, want %v", c.name, c.prev, c.wm, got, c.want)
		}
	}
}

// TestStreamSealJobRejectsCombine: a combiner sorts each frame by key,
// which would move watermarks ahead of the events sent before them, so a
// StreamJob with Conf.Combine is refused before it runs.
func TestStreamSealJobRejectsCombine(t *testing.T) {
	sj := &StreamJob{
		NumO: 1, NumA: 1, Procs: 1, Slots: 2,
		Conf:   Config{Combine: func(_ []byte, vals [][]byte) [][]byte { return vals }},
		Window: WindowSpec{Size: 10 * time.Millisecond},
		Source: func(*SourceContext) error { return nil },
		Emit:   func(FiredWindow) error { return nil },
	}
	if _, err := sj.Job(); err == nil || !strings.Contains(err.Error(), "Combine") {
		t.Errorf("StreamJob.Job with Conf.Combine: err = %v, want a Combine error", err)
	}
	if _, err := RunStream(sj); err == nil || !strings.Contains(err.Error(), "Combine") {
		t.Errorf("RunStream with Conf.Combine: err = %v, want a Combine error", err)
	}
}

// TestStreamSealFiresWithoutFlushTimer: with a flush interval no run
// reaches, every window must still fire before end-of-stream, because the
// watermark that releases a window also seals the buffers holding its
// events. Each source waits for every window before it returns.
func TestStreamSealFiresWithoutFlushTimer(t *testing.T) {
	const numO, numA, perSource = 2, 2, 200
	window := 10 * time.Millisecond
	key := func(src, i int) string { return fmt.Sprintf("k%d", (src+i)%5) }
	// (task, window start) -> events the window must hold.
	want := map[string]int{}
	for src := 0; src < numO; src++ {
		for i := 0; i < perSource; i++ {
			ts := streamBase.Add(time.Duration(i) * time.Millisecond)
			part := kv.DefaultPartition([]byte(key(src, i)), nil, numA)
			want[fmt.Sprintf("%d/%d", part, ts.Truncate(window).UnixNano())]++
		}
	}
	var mu sync.Mutex
	got := map[string]int{}
	all := make(chan struct{})
	sj := &StreamJob{
		NumO: numO, NumA: numA, Procs: 2, Slots: 2,
		Conf:   Config{FlushInterval: time.Hour},
		Window: WindowSpec{Size: window},
		Source: func(sc *SourceContext) error {
			var ts time.Time
			for i := 0; i < perSource; i++ {
				ts = streamBase.Add(time.Duration(i) * time.Millisecond)
				if err := sc.Emit([]byte(key(sc.Rank(), i)), []byte("v"), ts); err != nil {
					return err
				}
				if i%5 == 4 {
					if err := sc.Watermark(ts); err != nil {
						return err
					}
				}
			}
			// Past the last window's deadline: every window can fire now.
			if err := sc.Watermark(ts.Add(window)); err != nil {
				return err
			}
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				return fmt.Errorf("source %d: %d of %d windows fired before end-of-stream", sc.Rank(), len(got), len(want))
			}
		},
		Emit: func(fw FiredWindow) error {
			n := 0
			for _, g := range fw.Groups {
				n += len(g.Values)
			}
			mu.Lock()
			defer mu.Unlock()
			got[fmt.Sprintf("%d/%d", fw.Task, fw.Start.UnixNano())] += n
			if len(got) == len(want) {
				close(all)
			}
			return nil
		},
	}
	j, err := sj.Job()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("window %s: %d events, want %d", w, got[w], n)
		}
	}
	if n := res.RuntimeCounters["stream.late.dropped"]; n != 0 {
		t.Errorf("stream.late.dropped = %d, want 0", n)
	}
}

// TestStreamSealFramingIsTimingFree runs one fault-tolerant StreamJob
// twice, unpaced and with a sleep longer than the flush interval every few
// events. Sources seal by event time, so both runs must commit
// byte-identical checkpoint chunks: every chunk entry carries its frame's
// partition, task and idx, so equal chunks mean equal framing — which is
// what lets a partial restart's replay be deduplicated frame by frame.
func TestStreamSealFramingIsTimingFree(t *testing.T) {
	const numO, numA, perSource = 2, 2, 300
	run := func(paced bool) string {
		dir := t.TempDir()
		sj := &StreamJob{
			NumO: numO, NumA: numA, Procs: 2, Slots: 2,
			Conf: Config{FaultTolerance: true, CheckpointDir: dir, CheckpointRecords: 64},
			// Windows and flush interval off the sleep cadence.
			Window: WindowSpec{Size: 20 * time.Millisecond},
			Source: func(sc *SourceContext) error {
				for i := 0; i < perSource; i++ {
					ts := streamBase.Add(time.Duration(i) * time.Millisecond)
					if err := sc.Emit([]byte(fmt.Sprintf("k%d", i%7)), []byte(fmt.Sprintf("s%d-%d", sc.Rank(), i)), ts); err != nil {
						return err
					}
					if err := sc.Watermark(ts); err != nil {
						return err
					}
					if paced && i%7 == 3 {
						time.Sleep(6 * time.Millisecond)
					}
				}
				return nil
			},
			Emit: func(FiredWindow) error { return nil },
		}
		j, err := sj.Job()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(j); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	unpaced, paced := run(false), run(true)
	chunks := func(dir string) map[string][]byte {
		files, err := filepath.Glob(filepath.Join(dir, "*.done"))
		if err != nil {
			t.Fatal(err)
		}
		m := map[string][]byte{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m[filepath.Base(f)] = b
		}
		return m
	}
	a, b := chunks(unpaced), chunks(paced)
	if len(a) == 0 {
		t.Fatal("no checkpoint chunks committed")
	}
	for name, ab := range a {
		if bb, ok := b[name]; !ok {
			t.Errorf("chunk %s: only in the unpaced run", name)
		} else if !bytes.Equal(ab, bb) {
			t.Errorf("chunk %s differs between the unpaced and paced runs (%d vs %d bytes)", name, len(ab), len(bb))
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			t.Errorf("chunk %s: only in the paced run", name)
		}
	}
}

// TestStreamSourceErrorEndsRun: a source that fails must fail the run.
// The A tasks wait on stream channels that a failed run never closes, so
// they must give up on the abort instead of holding teardown forever.
func TestStreamSourceErrorEndsRun(t *testing.T) {
	boom := errors.New("source failed")
	sj := &StreamJob{
		NumO: 2, NumA: 2, Procs: 2, Slots: 2,
		Window: WindowSpec{Size: 10 * time.Millisecond},
		Source: func(sc *SourceContext) error {
			for i := 0; i < 20; i++ {
				if err := sc.Emit([]byte("k"), []byte("v"), streamBase.Add(time.Duration(i)*time.Millisecond)); err != nil {
					return err
				}
			}
			return boom
		},
		Emit: func(FiredWindow) error { return nil },
	}
	j, err := sj.Job()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(j)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Errorf("Run: err = %v, want the source's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return 10 s after a source failed")
	}
}
