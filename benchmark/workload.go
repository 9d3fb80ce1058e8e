package main

import (
	"fmt"
	"sort"
	"time"
)

// metricValue is one reported number with its unit and the number of
// samples it summarises (1 for a count or a single measurement). Lo and Hi
// are the sample's extremes where a count is a median over jobs: a work
// count repeats exactly (Lo == Hi), a timing-dependent one does not.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"-"`
	Lo, Hi float64 `json:"-"`
}

// runResult is what one run of one workload reports. Metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced run, never both: end-to-end numbers always come from a run with
// tracing off.
type runResult struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
	// Work holds the untraced run's work counts — records and bytes
	// shuffled, records into the combiner, events in and out. They are not
	// metrics: they must repeat exactly between two runs of one seed, and
	// -selfcheck fails when they do not.
	Work map[string]int64
	// YardMS is the median yardstick pass of the run, over YardN passes:
	// how fast the box was, against yardNominalMS.
	YardMS float64
	YardN  int
	// Raw holds, for a calibrated end-to-end metric, the median as the wall
	// clock read it.
	Raw map[string]float64
	// SelfMS is a traced run's harness spans by name: duration minus the
	// part covered by child spans.
	SelfMS    map[string]float64
	Notes     []string // failed operations and voided measurements, in words
	TraceFile string
}

func (r *runResult) set(name string, v float64, n int) {
	d, ok := metricDefs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, N: n, Lo: v, Hi: v}
}

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration // the measuring window
	traced  bool
	outDir  string // where results are stored and a traced run writes its Chrome trace
	env     envInfo
}

// workload is one of the four named inputs of the benchmark.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*runResult, error)
}

// Input sizes. They are half of what ISSUE 12 sketched, so that fifty
// jobs and the yardstick passes between them fit in one 25-second
// measuring window on the 2-core reference box (the driver makes ~90 runs
// inside one hour).
const (
	teraRecords   = 500_000 // x 100 B = 50 MB
	wcLines       = 125_000
	wcWordsLine   = 12
	wcVocab       = 5_000
	ftRecords     = 250_000 // x 100 B = 25 MB
	ftMemCache    = 2 << 20 // per process, against ~12 MB received: nearly all of it spills
	ftCPRecords   = 25_000
	setupRepeats  = 3 // set-ups per run; setup_s is their median
	warmupJobs    = 2
	tailBatch     = 75.0 // result_tail_ms percentile on batch workloads
	tailStream    = 95.0 // and on stream_agg
	ftCleanShare  = 0.5  // share of terasort_ft's window spent on clean jobs; the rest on crash/restart pairs
	streamPacedEv = 100_000
)

var workloads = []workload{
	{
		name: "terasort",
		why:  "every input byte crosses the wire and is sorted and merged: mpi, kv sort/merge and the A-side pipeline dominate, disk spill/checkpoint does nothing",
		run:  func(cfg runConfig) (*runResult, error) { return runBatch(teraSortSpec, cfg) },
	},
	{
		name: "wordcount",
		why:  "the combiner collapses data before the wire, so mpi carries little and O-side kv encode/sort/combine dominates; an mpi change predicts no change here",
		run:  func(cfg runConfig) (*runResult, error) { return runBatch(wordCountSpec, cfg) },
	},
	{
		name: "terasort_ft",
		why:  "terasort's code with a 2 MiB cache and checkpointing on, then crash/restart pairs: disk does most of the work, both ways (spill write+read, checkpoint write+reload)",
		run:  func(cfg runConfig) (*runResult, error) { return runBatch(teraSortFTSpec, cfg) },
	},
	{
		name: "stream_agg",
		why:  "open-loop 100k ev/s into 50 ms event-time windows, as a series of 2 s jobs pooled: thousands of tiny frames and credit round-trips through the same core and mpi path; latency, not bandwidth",
		run:  runStream,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sortedNames returns m's keys in registry order (end-to-end first, then
// per-layer as listed), so every table prints the same way.
func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricDefs[names[i]].order < metricDefs[names[j]].order })
	return names
}
