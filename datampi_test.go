package datampi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datampi"
)

// TestPublicAPIWordCount exercises the facade end-to-end exactly as a
// downstream user would: MapReduce mode, codecs, combiner, NextGroup.
func TestPublicAPIWordCount(t *testing.T) {
	docs := []string{
		"to be or not to be",
		"that is the question",
		"to sleep perchance to dream",
	}
	var mu sync.Mutex
	counts := map[string]int64{}
	job := &datampi.Job{
		Name: "wc",
		Mode: datampi.MapReduce,
		Conf: datampi.Config{ValueCodec: datampi.Int64Codec},
		NumO: len(docs), NumA: 2,
		OTask: func(ctx *datampi.Context) error {
			for _, w := range strings.Fields(docs[ctx.Rank()]) {
				if err := ctx.Send(w, int64(1)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				mu.Lock()
				counts[string(g.Key)] = int64(len(g.Values))
				mu.Unlock()
			}
		},
	}
	res, err := datampi.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if counts["to"] != 4 || counts["be"] != 2 || counts["question"] != 1 {
		t.Errorf("counts: %v", counts)
	}
	if res.RecordsSent != 15 {
		t.Errorf("records sent: %d, want 15", res.RecordsSent)
	}
}

// TestPublicAPICommonSort is the paper's Listing 1 through the facade.
func TestPublicAPICommonSort(t *testing.T) {
	in := []string{"pear", "apple", "fig", "kiwi", "date", "mango"}
	var mu sync.Mutex
	var got []string
	job := &datampi.Job{
		Mode: datampi.Common,
		Conf: datampi.Config{
			ValueCodec: datampi.NullCodec,
			Partition:  func(key, _ []byte, _ int) int { return 0 },
		},
		NumO: 2, NumA: 1,
		OTask: func(ctx *datampi.Context) error {
			for i := ctx.Rank(); i < len(in); i += ctx.CommSize(datampi.CommO) {
				if err := ctx.Send(in[i], struct{}{}); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			for {
				k, _, ok, err := ctx.Recv()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				mu.Lock()
				got = append(got, k.(string))
				mu.Unlock()
			}
		},
	}
	if _, err := datampi.Run(job, datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP})); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) || !sort.StringsAreSorted(got) {
		t.Errorf("got %v", got)
	}
}

// drainGroups is the no-op A task used by the API tests.
func drainGroups(ctx *datampi.Context) error {
	for {
		if _, ok, err := ctx.NextGroup(); err != nil {
			return err
		} else if !ok {
			return nil
		}
	}
}

// TestRunContextCancel cancels a run mid-shuffle: the error must unwrap
// to context.Canceled through the RunError wrapper, and the blocked O
// tasks must unblock (the test would hang, not fail, if they didn't).
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	job := &datampi.Job{
		Mode: datampi.MapReduce,
		NumO: 2, NumA: 1, Procs: 2,
		OTask: func(c *datampi.Context) error {
			// Send until cancellation surfaces through the send path.
			for i := 0; ; i++ {
				if err := c.Send(fmt.Sprintf("k%03d", i%57), "v"); err != nil {
					return err
				}
				if i == 500 {
					cancel()
				}
			}
		},
		ATask: drainGroups,
	}
	_, err := datampi.RunContext(ctx, job)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var re *datampi.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error does not wrap *datampi.RunError: %v", err)
	}
	if re.Rank != -1 {
		t.Errorf("cancellation attributed to worker %d, want -1", re.Rank)
	}
}

// TestRunErrorTyping checks the typed-error contract: task failures come
// back as *RunError with the failing worker's rank and the "run" phase,
// invalid jobs fail in "validate", and the cause text survives.
func TestRunErrorTyping(t *testing.T) {
	boom := errors.New("boom")
	job := &datampi.Job{
		Mode: datampi.MapReduce,
		NumO: 2, NumA: 2, Procs: 2,
		OTask: func(c *datampi.Context) error {
			if c.Rank() == 1 {
				return boom
			}
			return c.Send("k", "v")
		},
		ATask: drainGroups,
	}
	_, err := datampi.Run(job)
	var re *datampi.RunError
	if !errors.As(err, &re) {
		t.Fatalf("task failure does not wrap *RunError: %v", err)
	}
	if re.Phase != "run" {
		t.Errorf("phase %q, want \"run\"", re.Phase)
	}
	if re.Rank < 0 || re.Rank >= 2 {
		t.Errorf("rank %d, want a worker in [0,2)", re.Rank)
	}
	if !errors.Is(err, boom) {
		t.Errorf("errors.Is(err, boom) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error text lost the cause: %v", err)
	}

	_, err = datampi.Run(&datampi.Job{Mode: datampi.MapReduce})
	if !errors.As(err, &re) || re.Phase != "validate" {
		t.Errorf("invalid job: got %v, want *RunError in \"validate\"", err)
	}
}

// TestRunOptionsObservability drives WithCounters and WithTrace through
// the facade: counters are withheld by default, reported on request, and
// WithTrace emits a valid Chrome trace_event document.
func TestRunOptionsObservability(t *testing.T) {
	mkJob := func() *datampi.Job {
		return &datampi.Job{
			Mode: datampi.MapReduce,
			Conf: datampi.Config{ValueCodec: datampi.Int64Codec},
			NumO: 2, NumA: 2, Procs: 2,
			OTask: func(c *datampi.Context) error {
				for i := 0; i < 100; i++ {
					if err := c.Send(fmt.Sprintf("w%02d", i%17), int64(1)); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: drainGroups,
		}
	}
	res, err := datampi.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCounters != nil {
		t.Error("RuntimeCounters reported without WithCounters")
	}
	var buf bytes.Buffer
	res, err = datampi.Run(mkJob(),
		datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportMem}),
		datampi.WithCounters(),
		datampi.WithTrace(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RuntimeCounters["shuffle.records.sent"]; got != 200 {
		t.Errorf("shuffle.records.sent = %d, want 200", got)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WithTrace output is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"xmit", "recv", "merge"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
}

// TestWithTransportLastCallWins pins the transport-option contract: an
// option after WithTransport keeps the chosen kind, while a second
// WithTransport replaces it (a zero Kind is TransportMem).
func TestWithTransportLastCallWins(t *testing.T) {
	tcp := datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP})
	for _, tc := range []struct {
		name    string
		opts    []datampi.RunOption
		wantTCP bool
	}{
		{"tcp-then-trace", []datampi.RunOption{tcp, datampi.WithTrace(io.Discard)}, true},
		{"tcp-then-zero-kind", []datampi.RunOption{tcp, datampi.WithTransport(datampi.TransportConfig{})}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := &datampi.Job{
				Mode: datampi.MapReduce,
				NumO: 2, NumA: 2, Procs: 2,
				OTask: func(c *datampi.Context) error {
					return c.Send(fmt.Sprintf("k%d", c.Rank()), "v")
				},
				ATask: drainGroups,
			}
			res, err := datampi.Run(job, append(tc.opts, datampi.WithCounters())...)
			if err != nil {
				t.Fatal(err)
			}
			if dials := res.RuntimeCounters["mpi.dials"]; (dials > 0) != tc.wantTCP {
				t.Errorf("mpi.dials = %d, want TCP=%v", dials, tc.wantTCP)
			}
		})
	}
}

// TestShmOffWinsUnderTransportShm pins Config.ShmOff as the one shm switch
// that always wins: a job run under TransportShm with ShmOff set must open
// no ring (every pair on TCP) and report every job counter exactly as the
// ring run does — only the mpi.* wire counters may differ.
func TestShmOffWinsUnderTransportShm(t *testing.T) {
	run := func(shmOff bool) map[string]int64 {
		t.Helper()
		job := &datampi.Job{
			Mode: datampi.MapReduce,
			Conf: datampi.Config{ValueCodec: datampi.Int64Codec, ShmOff: shmOff},
			// NumO <= Procs*Slots: every task is placed in the first
			// dispatch wave, so the per-pair counters are deterministic.
			NumO: 4, NumA: 2, Procs: 2, Slots: 2,
			OTask: func(c *datampi.Context) error {
				for i := 0; i < 200; i++ {
					if err := c.Send(fmt.Sprintf("w%02d", (i*7+c.Rank())%23), int64(i)); err != nil {
						return err
					}
				}
				return nil
			},
			ATask: drainGroups,
		}
		res, err := datampi.Run(job,
			datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportShm}),
			datampi.WithCounters())
		if err != nil {
			t.Fatal(err)
		}
		return res.RuntimeCounters
	}
	on, off := run(false), run(true)
	if on["mpi.shm.conns"] == 0 {
		t.Fatal("TransportShm opened no shm ring: the ShmOff comparison is vacuous")
	}
	if got := off["mpi.shm.conns"]; got != 0 {
		t.Errorf("ShmOff under TransportShm: mpi.shm.conns = %d, want 0", got)
	}
	jobCounters := func(rc map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range rc {
			if !strings.HasPrefix(k, "mpi.") {
				out[k] = v
			}
		}
		return out
	}
	if a, b := jobCounters(on), jobCounters(off); !reflect.DeepEqual(a, b) {
		t.Errorf("job counters differ with ShmOff:\n  rings:   %v\n  ShmOff: %v", a, b)
	}
}

// TestPublicAPIStreaming exercises the resident streaming facade as a
// downstream user would: deterministic event-time sources with in-band
// watermarks, a tumbling window, per-key aggregation in the Emit
// callback, and the stream.* counters on the final Result.
func TestPublicAPIStreaming(t *testing.T) {
	const perSource, sources = 200, 2
	epoch := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	counts := map[string]int{}
	windows := 0
	sj := &datampi.StreamJob{
		Name: "stream-smoke",
		Conf: datampi.Config{KeyCodec: datampi.BytesCodec, ValueCodec: datampi.BytesCodec},
		NumO: sources, NumA: 2,
		Window: datampi.WindowSpec{Size: 50 * time.Millisecond},
		Source: func(sc *datampi.SourceContext) error {
			for i := 0; i < perSource; i++ {
				ts := epoch.Add(time.Duration(i) * time.Millisecond)
				key := []byte(fmt.Sprintf("k%d", i%4))
				if err := sc.Emit(key, []byte{1}, ts); err != nil {
					return err
				}
				if err := sc.Watermark(ts); err != nil {
					return err
				}
			}
			return nil
		},
		Emit: func(fw datampi.FiredWindow) error {
			mu.Lock()
			defer mu.Unlock()
			windows++
			for _, g := range fw.Groups {
				counts[string(g.Key)] += len(g.Values)
			}
			return nil
		},
	}
	h, err := datampi.RunStream(sj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := perSource / 50 * sources; windows < want {
		t.Errorf("fired %d windows, want >= %d", windows, want)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != perSource*sources {
		t.Errorf("aggregated %d events across windows, want %d", total, perSource*sources)
	}
	// A run this small finishes inside the initial credit window, so no
	// grants are needed — but the accounting must still have tracked the
	// outstanding events.
	if res.RuntimeCounters["stream.windows.fired"] == 0 || res.RuntimeCounters["stream.credits.max.outstanding"] == 0 {
		t.Errorf("stream counters missing: %v", res.RuntimeCounters)
	}
}
