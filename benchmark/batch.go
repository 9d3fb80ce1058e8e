package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"datampi"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// batchSpec describes one MapReduce-mode workload: how to generate its
// input into the mini-HDFS, how to build its job, and how to check its
// output.
type batchSpec struct {
	name    string
	records int64 // input records per job (TeraGen rows, or words)
	ft      bool  // terasort_ft: checkpointing on, then crash/restart pairs
	gen     func(env *benchEnv, seed int64) (*batchInput, error)
	job     func(env *benchEnv, kind jobKind, tr *trace.Tracer) (*datampi.Job, error)
	verify  func(env *benchEnv, in *batchInput) error

	// What the kv replay needs to walk this workload's records the way
	// its job does: the input as records, the partitioner, the combiner.
	replayRecords func(fs *hdfs.FileSystem) ([]kv.Record, error)
	partition     kv.Partition
	combine       kv.Combine
}

// jobKind selects which variant of a workload's job to build. Only
// terasort_ft tells them apart.
type jobKind int

const (
	cleanJob   jobKind = iota // fresh checkpoint directory, runs to completion
	crashJob                  // fresh directory, aborts once half the input is durably checkpointed
	restartJob                // resumes from the directory a crashJob left
	noCPJob                   // terasort_ft with checkpointing off: the base of disk.cp_overhead_pct
)

// batchInput is a generated input plus what the oracle needs to judge the
// output against it.
type batchInput struct {
	teraSum recordSum
	wcRef   map[string]uint64
	clean   partDigest // terasort: part digests of the first verified job
}

var teraSortSpec = &batchSpec{
	name:    "terasort",
	records: teraRecords,
	gen:     func(env *benchEnv, seed int64) (*batchInput, error) { return genTera(env, teraRecords, seed) },
	job: func(env *benchEnv, _ jobKind, tr *trace.Tracer) (*datampi.Job, error) {
		return teraSortJob(env, nil, tr)
	},
	verify:        verifyTera,
	replayRecords: teraRecordsOf,
	partition:     teraPartition,
}

var teraSortFTSpec = &batchSpec{
	name:    "terasort_ft",
	records: ftRecords,
	ft:      true,
	gen:     func(env *benchEnv, seed int64) (*batchInput, error) { return genTera(env, ftRecords, seed) },
	job: func(env *benchEnv, kind jobKind, tr *trace.Tracer) (*datampi.Job, error) {
		ft := &ftConf{memCacheBytes: ftMemCache, cpDir: env.cpDir(), cpRecords: ftCPRecords}
		switch kind {
		case crashJob:
			ft.crashAfterCP = ftRecords / 2
		case noCPJob:
			ft.cpDir = ""
		}
		return teraSortJob(env, ft, tr)
	},
	verify:        verifyTera,
	replayRecords: teraRecordsOf,
	partition:     teraPartition,
}

var wordCountSpec = &batchSpec{
	name:    "wordcount",
	records: wcLines * wcWordsLine,
	gen: func(env *benchEnv, seed int64) (*batchInput, error) {
		w, err := env.fs.Create(wcInput, -1)
		if err != nil {
			return nil, err
		}
		ref, err := textGen(w, wcLines, wcWordsLine, wcVocab, seed)
		if err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return &batchInput{wcRef: ref}, nil
	},
	job: func(env *benchEnv, _ jobKind, tr *trace.Tracer) (*datampi.Job, error) {
		return wordCountJob(env, tr)
	},
	verify:        func(env *benchEnv, in *batchInput) error { return verifyWordCount(env.fs, wcOutput, in.wcRef) },
	replayRecords: wordRecordsOf,
	partition:     kv.DefaultPartition,
	combine:       sumCombine,
}

func genTera(env *benchEnv, records int, seed int64) (*batchInput, error) {
	w, err := env.fs.Create(teraInput, -1)
	if err != nil {
		return nil, err
	}
	sum, err := teraGen(w, records, seed)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &batchInput{teraSum: sum}, nil
}

// verifyTera checks the sorted output and pins its part digests: the first
// verified output sets them, every later one (clean or recovered) must
// reproduce them byte for byte.
func verifyTera(env *benchEnv, in *batchInput) error {
	d, err := verifyTeraSort(env.fs, teraOutput, in.teraSum)
	if err != nil {
		return err
	}
	if in.clean == nil {
		in.clean = d
	} else if !in.clean.equal(d) {
		return errors.New("terasort: part files differ byte-wise from the first clean run's")
	}
	return nil
}

// batchState is a set-up workload: environment, input, warm runtime.
type batchState struct {
	spec *batchSpec
	env  *benchEnv
	in   *batchInput
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupBatch builds the environment, generates the input and runs the
// warm-up jobs: everything a user pays before the first timed job.
func setupBatch(spec *batchSpec, seed int64, rec *recorder) (*batchState, error) {
	root := rec.begin("bench.setup", nil)
	defer root.end()
	env, err := newBenchEnv()
	if err != nil {
		return nil, err
	}
	g := rec.begin("bench.gen", root)
	in, err := spec.gen(env, seed)
	g.end()
	if err != nil {
		env.close()
		return nil, err
	}
	st := &batchState{spec: spec, env: env, in: in}
	for i := 0; i < warmupJobs; i++ {
		if _, _, err := st.runJob(cleanJob, nil, nil); err != nil { // untraced: span sums cover timed jobs only
			env.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return st, nil
}

// runJob runs the workload's job once and returns its wall time, input
// read and output write included. The checkpoint directory is wiped
// first, outside the timing, unless the job restarts from it.
func (st *batchState) runJob(kind jobKind, rec *recorder, parent *span) (time.Duration, *datampi.Result, error) {
	if st.spec.ft && kind != restartJob {
		if err := os.RemoveAll(st.env.cpDir()); err != nil {
			return 0, nil, err
		}
	}
	job, err := st.spec.job(st.env, kind, rec.tracer())
	if err != nil {
		return 0, nil, err
	}
	sp := rec.begin("bench.job", parent)
	start := time.Now()
	res, err := datampi.Run(job, runOpts...)
	d := time.Since(start)
	sp.end()
	return d, res, err
}

func (st *batchState) verify(rec *recorder, parent *span) error {
	sp := rec.begin("bench.verify", parent)
	defer sp.end()
	return st.spec.verify(st.env, st.in)
}

// jobSamples is what a timed loop collected, one entry per completed job.
type jobSamples struct {
	ms      []float64 // wall time
	at      []int     // index of the yardstick pass right before the job
	calMS   []float64 // wall time calibrated by the yardstick passes around the job
	results []*datampi.Result
	allocMB []float64 // heap bytes allocated during the job
	allocs  []float64 // heap objects allocated during the job
}

// timedLoop runs jobs back to back until the window closes (always at
// least two, so there is a first and a last to verify). The first and the
// last output are verified, outside the timing; an error or a mismatch is
// a failed operation, never a crash.
//
// A yardstick pass separates every two jobs; a job's calibrated time
// comes from the two passes before it and the two after it.
//
// With a recorder, every second job runs with the tracer attached and is
// collected separately: alternating the two keeps heap growth and cache
// drift over the window out of their difference.
func (st *batchState) timedLoop(window time.Duration, y *yardstick, rec *recorder, out *runResult) (plain, traced jobSamples) {
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		s, jobRec := &plain, (*recorder)(nil)
		if rec != nil && i%2 == 1 {
			s, jobRec = &traced, rec
		}
		at := y.pace()
		runtime.ReadMemStats(&m0)
		d, res, err := st.runJob(cleanJob, jobRec, nil)
		runtime.ReadMemStats(&m1)
		out.Attempted++
		if err != nil {
			out.fail("%s job %d: %v", st.spec.name, i, err)
			continue
		}
		s.ms = append(s.ms, millis(d))
		s.at = append(s.at, at)
		s.results = append(s.results, res)
		s.allocMB = append(s.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		s.allocs = append(s.allocs, float64(m1.Mallocs-m0.Mallocs))
		if i == 0 {
			if err := st.verify(rec, nil); err != nil {
				out.fail("%s job 0: %v", st.spec.name, err)
			}
		}
	}
	y.pace()
	y.pace()
	for _, s := range []*jobSamples{&plain, &traced} {
		for k, raw := range s.ms {
			s.calMS = append(s.calMS, y.calibrate(raw, s.at[k]))
		}
	}
	if err := st.verify(rec, nil); err != nil {
		out.fail("%s last job: %v", st.spec.name, err)
	}
	return plain, traced
}

// recoveryPair crashes one job once half the input is durably
// checkpointed, then times the restarted run over the same checkpoint
// directory. Every recovered output is verified against the clean run's.
//
// A yardstick pass separates the crash from the restart; the caller makes
// the next one, and calibrates the restart's time with pass `at` once the
// passes after it exist.
func (st *batchState) recoveryPair(y *yardstick, rec *recorder, out *runResult) (rawMS float64, at int, res *datampi.Result, ok bool) {
	out.Attempted++
	_, _, err := st.runJob(crashJob, rec, nil)
	if !errors.Is(err, datampi.ErrInjectedFailure) {
		out.fail("%s crash run: want the injected failure, got %v", st.spec.name, err)
		return 0, 0, nil, false
	}
	at = y.pace()
	d, res, err := st.runJob(restartJob, rec, nil)
	if err != nil {
		out.fail("%s restart: %v", st.spec.name, err)
		return 0, 0, nil, false
	}
	if err := st.verify(rec, nil); err != nil {
		out.fail("%s restart: %v", st.spec.name, err)
		return 0, 0, nil, false
	}
	return millis(d), at, res, true
}

// workCounts are the counters of a job that depend on its input alone.
func workCounts(r *datampi.Result) map[string]int64 {
	w := map[string]int64{}
	for _, k := range []string{"shuffle.records.sent", "shuffle.bytes.sent", "combine.records.in"} {
		w[k] = r.RuntimeCounters[k]
	}
	return w
}

// runBatch is one invocation of a batch workload.
func runBatch(spec *batchSpec, cfg runConfig) (*runResult, error) {
	out := &runResult{Workload: spec.name, Traced: cfg.traced, Metrics: map[string]metricValue{}}
	if cfg.traced {
		return out, tracedBatch(spec, cfg, out)
	}

	// Set up several times and report the median: one set-up is a single
	// sample of a number later PRs are gated on.
	y := newYardstick()
	var st *batchState
	var rawSetups []float64
	var setupAt []int
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.env.close()
		}
		setupAt = append(setupAt, y.pace())
		start := time.Now()
		var err error
		if st, err = setupBatch(spec, cfg.seed, nil); err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, time.Since(start).Seconds())
	}
	defer st.env.close()

	window := cfg.seconds
	if spec.ft {
		window = time.Duration(float64(cfg.seconds) * ftCleanShare)
	}
	s, _ := st.timedLoop(window, y, nil, out)
	if len(s.ms) == 0 {
		return out, errors.New("no job completed")
	}
	out.Work = workCounts(s.results[0])
	for i, r := range s.results {
		for k, v := range workCounts(r) {
			if v != out.Work[k] {
				out.note("work count %s is not repeatable: job 0 %d, job %d %d", k, out.Work[k], i, v)
			}
		}
	}
	var setups []float64 // the timed loop has made the passes after the last one
	for i, raw := range rawSetups {
		setups = append(setups, y.calibrate(raw, setupAt[i]))
	}
	p50 := median(s.calMS)
	out.set("setup_s", median(setups), len(setups))
	out.set("result_p50_ms", p50, len(s.calMS))
	out.set("result_tail_ms", percentile(s.calMS, tailBatch), len(s.calMS))
	out.set("records_s", float64(spec.records)/(p50/1000), len(s.calMS))
	if highestPercentile(len(s.calMS)) < tailBatch {
		out.note("result_tail_ms: only %d jobs fit the window; p%.0f has fewer than 10 samples beyond it", len(s.calMS), tailBatch)
	}

	out.Raw = map[string]float64{"setup_s": median(rawSetups), "result_p50_ms": median(s.ms), "result_tail_ms": percentile(s.ms, tailBatch)}

	recov := s.calMS // without checkpoints a crash costs a full rerun of the job
	if spec.ft {
		var raw []float64
		var at []int
		deadline := time.Now().Add(cfg.seconds - window)
		for i := 0; i < 2 || time.Now().Before(deadline); i++ {
			if d, a, _, ok := st.recoveryPair(y, nil, out); ok {
				raw, at = append(raw, d), append(at, a)
			}
		}
		if len(raw) == 0 {
			return out, errors.New("no recovery completed")
		}
		y.pace()
		y.pace()
		recov = make([]float64, len(raw))
		for i := range raw {
			recov[i] = y.calibrate(raw[i], at[i])
		}
	}
	out.set("recover_s", median(recov)/1000, len(recov))
	y.account(out)
	return out, nil
}
