package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"datampi/internal/trace"
)

// The traced run attaches one trace.Tracer per workload. The program's
// existing spans (prepare, xmit, recv, merge, spill.write, ...) land in it
// through Job.Trace; the harness adds its own spans from its own files —
// bench.setup, bench.gen, bench.job, bench.verify, replay.<layer>.<call>
// — on a separate trace row. Each harness span carries an id, its
// parent's id and the workload name, so one workload's spans can be
// stitched into a tree. Everything stays in memory until the run ends.

const harnessPID = 1000 // trace row of the harness, clear of the rank pids

// recorder records harness spans. A nil *recorder is the untraced run:
// every method is a no-op, so the timed paths carry no tracing branches.
type recorder struct {
	tr       *trace.Tracer
	buf      *trace.Buf
	workload string
	nextID   atomic.Int64
}

func newRecorder(workload string) *recorder {
	tr := trace.New()
	tr.SetProcessName(harnessPID, "benchmark harness: "+workload)
	return &recorder{tr: tr, buf: tr.Rank(harnessPID), workload: workload}
}

// tracer returns the tracer to hand to Job.Trace (nil when untraced).
func (r *recorder) tracer() *trace.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

type span struct {
	r      *recorder
	name   string
	id     int64
	parent int64
	start  time.Time
}

// begin opens a span under parent (nil for a root).
func (r *recorder) begin(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{r: r, name: name, id: r.nextID.Add(1), start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	cat, _, _ := strings.Cut(s.name, ".") // "bench" or "replay"
	s.r.buf.Span(0, s.name, cat, s.start, map[string]any{
		"id": s.id, "parent": s.parent, "workload": s.r.workload,
	})
}

// spanBusyMS sums, per span name, the durations of the program's complete
// spans ("X" events outside the harness row) in milliseconds. Spans of one
// name on different worker rows overlap in time, so the sum is busy time
// across goroutines, not wall time.
func spanBusyMS(evs []trace.Event) map[string]float64 {
	out := map[string]float64{}
	for _, e := range evs {
		if e.Ph == "X" && e.PID != harnessPID {
			out[e.Name] += float64(e.Dur) / 1000
		}
	}
	return out
}

// selfTimesMS computes each harness span name's self time: its duration
// minus the part of that interval its child spans cover (children of one
// parent may overlap each other, so their union is taken).
func selfTimesMS(evs []trace.Event) map[string]float64 {
	type iv struct{ lo, hi int64 }
	asInt := func(v any) int64 {
		switch x := v.(type) {
		case int64:
			return x
		case float64: // after a JSON round trip
			return int64(x)
		}
		return 0
	}
	children := map[int64][]iv{}
	var spans []trace.Event
	for _, e := range evs {
		if e.Ph != "X" || e.PID != harnessPID {
			continue
		}
		spans = append(spans, e)
		if p := asInt(e.Args["parent"]); p != 0 {
			children[p] = append(children[p], iv{e.TS, e.TS + e.Dur})
		}
	}
	out := map[string]float64{}
	for _, e := range spans {
		kids := children[asInt(e.Args["id"])]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, end := int64(0), e.TS
		for _, k := range kids {
			lo, hi := k.lo, k.hi
			if lo < end {
				lo = end
			}
			if hi > e.TS+e.Dur {
				hi = e.TS + e.Dur
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[e.Name] += float64(e.Dur-covered) / 1000
	}
	return out
}

// writeTrace writes the workload's Chrome trace (harness and program
// spans together) under dir.
func (r *recorder) writeTrace(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	return path, r.tr.WriteFile(path)
}
