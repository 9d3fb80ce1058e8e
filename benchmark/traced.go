package main

import (
	"errors"
	"runtime"
	"time"

	"datampi"
)

// The traced invocation of a workload. It never reports an end-to-end
// metric. It runs, in order: the workload for half the window, jobs
// alternately untraced (counters, allocation, and the base of
// trace.overhead_pct) and with a tracer attached (span sums), the
// workload's disk-side pairs where it has any, the kv replay, and the
// workload-independent probes.

// counterOf extracts one number from a job's Result.
type counterOf func(*datampi.Result) float64

func rc(name string) counterOf {
	return func(r *datampi.Result) float64 { return float64(r.RuntimeCounters[name]) }
}

func ratio(num, den counterOf) counterOf {
	return func(r *datampi.Result) float64 {
		if d := den(r); d != 0 {
			return num(r) / d
		}
		return 0
	}
}

func scaled(c counterOf, by float64) counterOf {
	return func(r *datampi.Result) float64 { return c(r) * by }
}

func ms(d []time.Duration) float64 {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return float64(t) / float64(time.Millisecond)
}

// countMetrics are the per-layer numbers read off each untraced job's
// Result (source C). Work counts repeat exactly from job to job;
// timing-dependent ones (spill bytes, writev calls, coalesced batches)
// do not, so each is reported as the median over the jobs.
var countMetrics = map[string]counterOf{
	"kv.combine_ratio":        ratio(rc("combine.records.out"), rc("combine.records.in")),
	"core.setup_ms":           func(r *datampi.Result) float64 { return ms([]time.Duration{r.SetupTime}) },
	"core.ophase_ms":          func(r *datampi.Result) float64 { return ms(r.OPhaseTimes) },
	"core.aphase_ms":          func(r *datampi.Result) float64 { return ms(r.APhaseTimes) },
	"core.shuffle_mb":         scaled(rc("shuffle.bytes.sent"), 1e-6),
	"core.shuffle_records":    rc("shuffle.records.sent"),
	"core.combine_records_in": rc("combine.records.in"),
	"core.partition_skew": func(r *datampi.Result) float64 {
		var max, total float64
		for _, n := range r.ATaskReceived {
			total += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		if total == 0 {
			return 0
		}
		return max / (total / float64(len(r.ATaskReceived)))
	},
	"core.local_atask_share": func(r *datampi.Result) float64 {
		if n := r.LocalATasks + r.RemoteATasks; n > 0 {
			return float64(r.LocalATasks) / float64(n)
		}
		return 0
	},
	"stream.credits_max_outstanding": rc("stream.credits.max.outstanding"),
	"stream.windows_fired":           rc("stream.windows.fired"),
	"stream.events_in":               rc("stream.events.in"),
	"stream.events_out":              rc("stream.events.out"),
	"mpi.frames_sent":                rc("mpi.frames.sent"),
	"mpi.bytes_sent":                 rc("mpi.bytes.sent"),
	"mpi.writev_calls":               rc("mpi.writev.calls"),
	"mpi.coalesce_batches":           rc("mpi.coalesce.batches"),
	"mpi.frames_per_writev":          ratio(rc("mpi.frames.sent"), rc("mpi.writev.calls")),
	"mpi.wire_overhead":              ratio(rc("mpi.bytes.sent"), rc("shuffle.bytes.sent")),
	"mpi.send_retries":               rc("mpi.send.retries"),
	"mpi.dials":                      rc("mpi.dials"),
	"mpi.bytes_per_event":            ratio(rc("mpi.bytes.sent"), rc("stream.events.in")),
	"disk.spill_mb_written":          scaled(rc("spill.bytes.written"), 1e-6),
	"disk.spill_mb_read":             scaled(rc("spill.bytes.read"), 1e-6),
	"disk.spill_files":               rc("spill.files"),
	"disk.spill_compactions":         rc("spill.compactions"),
	"disk.cp_chunks":                 rc("checkpoint.chunks"),
	"disk.cp_records":                rc("checkpoint.records"),
	"disk.cp_async_commits":          rc("cp.async.commits"),
	"disk.cp_async_stalls":           rc("cp.async.stalls"),
}

// setCounts reports every countMetrics entry as its median over results.
func setCounts(out *runResult, results []*datampi.Result) {
	for name, get := range countMetrics {
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = get(r)
		}
		out.set(name, median(vals), len(vals))
		m := out.Metrics[name]
		m.Lo, m.Hi = percentile(vals, 0), percentile(vals, 100)
		out.Metrics[name] = m
	}
}

// spanMetrics maps the program's existing span names onto per-layer busy
// metrics (source S). Each is reported per traced job, and for the core
// pipeline also as a share of what the job could have used: wall x
// GOMAXPROCS.
var spanMetrics = []struct {
	metric string
	spans  []string
	share  string
}{
	{"core.prepare_busy_ms", []string{"prepare"}, "core.prepare_busy_share"},
	{"core.xmit_busy_ms", []string{"xmit"}, "core.xmit_busy_share"},
	{"core.recv_busy_ms", []string{"recv"}, "core.recv_busy_share"},
	{"core.merge_busy_ms", []string{"merge"}, "core.merge_busy_share"},
	{"core.spl_drain_wait_ms", []string{"spl.drain"}, "core.spl_drain_wait_share"},
	{"disk.spill_write_busy_ms", []string{"spill.write"}, ""},
	{"disk.spill_compact_busy_ms", []string{"spill.compact"}, ""},
	{"disk.cp_commit_busy_ms", []string{"cp.commit", "cp.commit.async"}, ""},
}

func setSpans(out *runResult, busy map[string]float64, jobs int, wallMS float64) {
	for _, m := range spanMetrics {
		var total float64
		for _, s := range m.spans {
			total += busy[s]
		}
		per := 0.0
		if jobs > 0 {
			per = total / float64(jobs)
		}
		out.set(m.metric, per, jobs)
		if m.share != "" {
			share := 0.0
			if wallMS > 0 {
				share = total / (wallMS * float64(runtime.GOMAXPROCS(0)))
			}
			out.set(m.share, share, jobs)
		}
	}
}

// fillPerLayer sets every per-layer metric the invocation did not measure
// to 0: the layer is bypassed by this workload (kv on stream_agg, stream
// counters on a batch job), which is itself the finding.
func fillPerLayer(out *runResult) {
	for _, d := range perLayer {
		if _, ok := out.Metrics[d.Name]; !ok {
			out.set(d.Name, 0, 0)
		}
	}
}

// setProbes copies the workload-independent probe results in.
func setProbes(out *runResult, seed int64) {
	p := commonProbes(seed)
	for name, v := range p.values {
		out.set(name, v, 1)
	}
	out.Notes = append(out.Notes, p.notes...)
}

// overheadPct is how much slower the traced jobs ran than the untraced
// ones of the same invocation, in percent of the untraced median.
func overheadPct(untraced, traced []float64) float64 {
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}

func tracedBatch(spec *batchSpec, cfg runConfig, out *runResult) error {
	rec := newRecorder(spec.name)
	st, err := setupBatch(spec, cfg.seed, rec)
	if err != nil {
		return err
	}
	defer st.env.close()

	y := newYardstick()
	base, traced := st.timedLoop(cfg.seconds/2, y, rec, out)
	if len(base.ms) == 0 || len(traced.ms) == 0 {
		return errors.New("no job completed")
	}
	out.set("raw.result_p50_ms", median(base.ms), len(base.ms))
	setCounts(out, base.results)
	out.set("core.alloc_mb_job", median(base.allocMB), len(base.allocMB))
	out.set("core.allocs_job", median(base.allocs), len(base.allocs))
	out.set("trace.overhead_pct", overheadPct(base.ms, traced.ms), len(traced.ms))

	assertBypass(spec, out)
	if spec.ft {
		tracedFT(st, y, out)
	}
	out.set("yard.pass_ms", median(y.passMS), len(y.passMS))
	y.account(out)

	// Replay this workload's records through kv, one goroutine.
	recs, err := spec.replayRecords(st.env.fs)
	if err != nil {
		return err
	}
	for name, v := range replayKV(recs, spec.partition, spec.combine, benchProcs*benchSlots, rec) {
		out.set(name, v, len(recs))
	}

	// Span sums cover the traced jobs only: read them before anything else
	// could add program spans.
	evs := rec.tr.Events()
	setSpans(out, spanBusyMS(evs), len(traced.ms), sum(traced.ms))
	out.set("trace.events", float64(len(evs)), 1)
	out.SelfMS = selfTimesMS(evs)

	setProbes(out, cfg.seed)
	out.set("core.peak_rss_mb", peakRSSMB(), 1)
	fillPerLayer(out)
	out.TraceFile, err = rec.writeTrace(cfg.outDir)
	return err
}

// assertBypass holds each batch workload to the layer it is here to
// bypass: a workload that stops bypassing it no longer tells the layers
// apart, and every "no change expected" prediction made on it is void.
func assertBypass(spec *batchSpec, out *runResult) {
	out.Attempted++
	if !spec.ft {
		for _, name := range []string{"disk.spill_mb_written", "disk.spill_mb_read", "disk.spill_files",
			"disk.spill_compactions", "disk.cp_chunks", "disk.cp_records", "disk.cp_async_commits", "disk.cp_async_stalls"} {
			if m := out.Metrics[name]; m.Hi != 0 {
				out.fail("%s must bypass spill and checkpoint, but %s reached %g", spec.name, name, m.Hi)
				return
			}
		}
	}
	if r := out.Metrics["kv.combine_ratio"].Value; spec.combine != nil && r >= 0.25 {
		out.fail("%s's combiner must collapse the data before the wire, but combine ratio is %.3f", spec.name, r)
	}
}

// tracedFT measures terasort_ft's disk-side pairs: checkpointing on vs
// off in alternation (the paper's Fig. 13 overhead), and what a restart
// reloads after a crash at half the input.
func tracedFT(st *batchState, y *yardstick, out *runResult) {
	const pairs = 10
	var on, off []float64
	for i := 0; i < pairs; i++ {
		for _, kind := range []jobKind{cleanJob, noCPJob} {
			if i%2 == 1 { // alternate which side runs first
				kind = cleanJob + noCPJob - kind
			}
			d, _, err := st.runJob(kind, nil, nil)
			out.Attempted++
			if err != nil {
				out.fail("%s overhead pair %d: %v", st.spec.name, i, err)
				continue
			}
			if kind == cleanJob {
				on = append(on, float64(d)/float64(time.Millisecond))
			} else {
				off = append(off, float64(d)/float64(time.Millisecond))
			}
		}
	}
	out.set("disk.cp_overhead_pct", overheadPct(off, on), len(on))

	var reload, share []float64
	for i := 0; i < 3; i++ {
		if _, _, res, ok := st.recoveryPair(y, nil, out); ok {
			reload = append(reload, float64(res.ReloadTime)/float64(time.Millisecond))
			// The crash fires once half the input is durable, so that half
			// is what a perfect restart reloads.
			share = append(share, float64(res.RecordsReloaded)/float64(st.spec.records/2))
		}
	}
	out.set("disk.reload_ms", median(reload), len(reload))
	out.set("disk.reloaded_share", median(share), len(share))
}
