package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"datampi/internal/kv"
	"datampi/internal/trace"
)

// A traced run must produce a valid Chrome trace_event file containing the
// full span vocabulary: O-task and A-task spans, shuffle xmit/recv spans,
// and SPL buffer events.
func TestTracedRunEmitsTaskAndShuffleSpans(t *testing.T) {
	tr := trace.New()
	job := &Job{
		Mode: MapReduce,
		Conf: Config{ValueCodec: kv.Int64, Combine: sumCombine},
		NumO: 3, NumA: 2, Procs: 2,
		Trace: tr,
		OTask: func(ctx *Context) error {
			for i := 0; i < 200; i++ {
				if err := ctx.Send(fmt.Sprintf("w%02d", i%17), int64(1)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			for {
				if _, ok, err := ctx.NextGroup(); err != nil {
					return err
				} else if !ok {
					return nil
				}
			}
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	spans := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			spans[e.Name]++
		}
	}
	for _, want := range []string{"O0", "O1", "O2", "A0", "A1", "xmit", "recv"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, spans)
		}
	}
	if spans["spl.seal"]+spans["spl.drain"] == 0 {
		t.Errorf("trace has no SPL buffer events (got %v)", spans)
	}
}

// With no tracer attached, the same run must leave Job.Trace methods on the
// nil path — this is a compile-and-run guard that the disabled path stays
// panic-free end to end (its cost is measured by the benchmark's
// trace.overhead_pct).
func TestUntracedRunIsNilSafe(t *testing.T) {
	job := &Job{
		Mode: MapReduce,
		NumO: 2, NumA: 1, Procs: 2,
		OTask: func(ctx *Context) error { return ctx.Send("k", "v") },
		ATask: func(ctx *Context) error {
			for {
				if _, _, ok, err := ctx.Recv(); err != nil {
					return err
				} else if !ok {
					return nil
				}
			}
		},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCounters == nil {
		t.Error("runtime counters missing on untraced run")
	}
	assertBalancedCounters(t, res.RuntimeCounters)
}
