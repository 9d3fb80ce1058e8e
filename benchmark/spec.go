package main

// The metric registry: every name the benchmark prints, with its unit and
// direction, and for per-layer metrics the layer, how the number is
// obtained, and the end-to-end metric it is expected to move. BENCHMARK.json
// at the repo root lists exactly these names (a unit test holds the two
// together); README.md explains them.

// Sources of a per-layer number.
const (
	srcCount   = "C" // counter or Result field of the untraced jobs of the traced invocation
	srcSpan    = "S" // sum of the program's existing trace spans over the traced jobs
	srcReplay  = "R" // the workload's own records fed through the layer's public functions, one goroutine
	srcMicro   = "M" // fixed-input microbenchmark of a public function
	srcHarness = "H" // measured by the harness around the workload
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	Layer  string  // per-layer only
	Source string  // per-layer only
	Moves  string  // per-layer only: metric@workload it should move
	order  int
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "result_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "result_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "records_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	mvJobAll   = "result_p50_ms@terasort,wordcount,terasort_ft"
	mvJobWC    = "result_p50_ms@wordcount"
	mvJobTera  = "result_p50_ms@terasort,terasort_ft"
	mvJobFT    = "result_p50_ms@terasort_ft"
	mvStream   = "result_tail_ms@stream_agg, records_s@stream_agg"
	mvWorkDone = "none: work done, must not change under a pure speed-up"
)

var perLayer = []metricDef{
	// kv: replayed per batch workload; 0 on stream_agg, which never sorts.
	{Name: "kv.encode_ns_rec", Unit: "ns", Better: "lower", Layer: "kv", Source: srcReplay, Moves: mvJobWC},
	{Name: "kv.decode_ns_rec", Unit: "ns", Better: "lower", Layer: "kv", Source: srcReplay, Moves: mvJobTera},
	{Name: "kv.sort_ns_rec", Unit: "ns", Better: "lower", Layer: "kv", Source: srcReplay, Moves: mvJobAll},
	{Name: "kv.merge_ns_rec", Unit: "ns", Better: "lower", Layer: "kv", Source: srcReplay, Moves: mvJobTera},
	{Name: "kv.combine_ns_rec", Unit: "ns", Better: "lower", Layer: "kv", Source: srcReplay, Moves: mvJobWC},
	{Name: "kv.combine_ratio", Unit: "ratio", Better: "lower", Layer: "kv", Source: srcCount, Moves: mvJobWC + " (1.0 elsewhere)"},

	// core: phases, pipeline busy time, work done, memory.
	{Name: "core.setup_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcCount, Moves: mvJobAll},
	{Name: "core.ophase_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcCount, Moves: mvJobWC + " (O phase is nearly all of it)"},
	{Name: "core.aphase_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcCount, Moves: mvJobTera + " (the A-phase tail after the last O task)"},
	{Name: "core.prepare_busy_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobWC},
	{Name: "core.prepare_busy_share", Unit: "ratio", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobWC},
	{Name: "core.xmit_busy_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.xmit_busy_share", Unit: "ratio", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.recv_busy_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.recv_busy_share", Unit: "ratio", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.merge_busy_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.merge_busy_share", Unit: "ratio", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobTera},
	{Name: "core.spl_drain_wait_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobAll + " (rising with flat busy time: the next stage is the bottleneck)"},
	{Name: "core.spl_drain_wait_share", Unit: "ratio", Better: "lower", Layer: "core", Source: srcSpan, Moves: mvJobAll},
	{Name: "core.shuffle_mb", Unit: "MB", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "core.shuffle_records", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "core.combine_records_in", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "core.partition_skew", Unit: "ratio", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "core.local_atask_share", Unit: "ratio", Better: "higher", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "core.alloc_mb_job", Unit: "MB", Better: "lower", Layer: "core", Source: srcMicro, Moves: "result_p50_ms, result_tail_ms@all batch (via GC)"},
	{Name: "core.allocs_job", Unit: "count", Better: "lower", Layer: "core", Source: srcMicro, Moves: "result_p50_ms, result_tail_ms@all batch (via GC)"},
	{Name: "core.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "core", Source: srcMicro, Moves: "none: shows work moved into memory"},

	// core, streaming half.
	{Name: "stream.credit_stalls.r100k", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: "result_tail_ms@stream_agg (must be 0 this far below the knee)"},
	{Name: "stream.credit_stalls.r400k", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvStream},
	{Name: "stream.credits_max_outstanding", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvStream},
	{Name: "stream.windows_fired", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "stream.events_in", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "stream.events_out", Unit: "count", Better: "lower", Layer: "core", Source: srcCount, Moves: mvWorkDone},
	{Name: "stream.gen_late_p95_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcHarness, Moves: "validity of result_*_ms@stream_agg: a late generator voids the phase"},
	{Name: "stream.delivered_share.r100k", Unit: "ratio", Better: "higher", Layer: "core", Source: srcHarness, Moves: "validity of result_*_ms@stream_agg"},
	{Name: "stream.delivered_share.r400k", Unit: "ratio", Better: "higher", Layer: "core", Source: srcHarness, Moves: "validity of stream.win_lat_*.r400k"},
	{Name: "stream.win_lat_p50_ms.r400k", Unit: "ms", Better: "lower", Layer: "core", Source: srcHarness, Moves: "result_p50_ms@stream_agg once queueing starts"},
	{Name: "stream.win_lat_p95_ms.r400k", Unit: "ms", Better: "lower", Layer: "core", Source: srcHarness, Moves: "result_tail_ms@stream_agg once queueing starts"},
	{Name: "stream.max_ev_s", Unit: "1/s", Better: "higher", Layer: "core", Source: srcHarness, Moves: "result_tail_ms@stream_agg as the offered rate nears it (closed loop, 2M unpaced events; too unsteady on a shared box to be end to end)"},
	{Name: "stream.sustained_rate_ev_s", Unit: "1/s", Better: "higher", Layer: "core", Source: srcHarness, Moves: "records_s@stream_agg (discrete, hence diagnostic)"},

	// mpi: three links under one 2-rank world, then the workload's wire counters.
	{Name: "mpi.mem.lat_us", Unit: "us", Better: "lower", Layer: "mpi", Source: srcMicro, Moves: "none: mem is a test double"},
	{Name: "mpi.mem.bw_mb_s", Unit: "MB/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "none: mem is a test double"},
	{Name: "mpi.mem.msgrate_k_s", Unit: "k/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "none: mem is a test double"},
	{Name: "mpi.tcp.lat_us", Unit: "us", Better: "lower", Layer: "mpi", Source: srcMicro, Moves: "result_*_ms@stream_agg"},
	{Name: "mpi.tcp.bw_mb_s", Unit: "MB/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "result_p50_ms@terasort; none@wordcount"},
	{Name: "mpi.tcp.msgrate_k_s", Unit: "k/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "records_s@stream_agg"},
	{Name: "mpi.shm.lat_us", Unit: "us", Better: "lower", Layer: "mpi", Source: srcMicro, Moves: "launch.job_ms.shm only: in-process workloads run on tcp"},
	{Name: "mpi.shm.bw_mb_s", Unit: "MB/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "launch.job_ms.shm only"},
	{Name: "mpi.shm.msgrate_k_s", Unit: "k/s", Better: "higher", Layer: "mpi", Source: srcMicro, Moves: "launch.job_ms.shm only"},
	{Name: "mpi.frames_sent", Unit: "count", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "records_s@stream_agg (per-frame cost x frame count)"},
	{Name: "mpi.bytes_sent", Unit: "count", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "result_p50_ms@terasort"},
	{Name: "mpi.writev_calls", Unit: "count", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "result_p50_ms@terasort, records_s@stream_agg"},
	{Name: "mpi.coalesce_batches", Unit: "count", Better: "higher", Layer: "mpi", Source: srcCount, Moves: "records_s@stream_agg"},
	{Name: "mpi.frames_per_writev", Unit: "ratio", Better: "higher", Layer: "mpi", Source: srcCount, Moves: "records_s@stream_agg (useful frames per write attempt)"},
	{Name: "mpi.wire_overhead", Unit: "ratio", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "result_p50_ms@terasort"},
	{Name: "mpi.send_retries", Unit: "count", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "any: must stay 0 on a clean loopback"},
	{Name: "mpi.dials", Unit: "count", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "core.setup_ms"},
	{Name: "mpi.bytes_per_event", Unit: "ratio", Better: "lower", Layer: "mpi", Source: srcCount, Moves: "records_s@stream_agg"},

	// disk: spill files, checkpoint chunks, then the raw floors.
	{Name: "disk.spill_mb_written", Unit: "MB", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT + "; 0 on terasort, wordcount"},
	{Name: "disk.spill_mb_read", Unit: "MB", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.spill_files", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.spill_compactions", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.cp_chunks", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.cp_records", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.cp_async_commits", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.cp_async_stalls", Unit: "count", Better: "lower", Layer: "disk", Source: srcCount, Moves: mvJobFT},
	{Name: "disk.spill_write_busy_ms", Unit: "ms", Better: "lower", Layer: "disk", Source: srcSpan, Moves: mvJobFT},
	{Name: "disk.spill_compact_busy_ms", Unit: "ms", Better: "lower", Layer: "disk", Source: srcSpan, Moves: mvJobFT},
	{Name: "disk.cp_commit_busy_ms", Unit: "ms", Better: "lower", Layer: "disk", Source: srcSpan, Moves: mvJobFT},
	{Name: "disk.cp_overhead_pct", Unit: "%", Better: "lower", Layer: "disk", Source: srcHarness, Moves: mvJobFT + " (the paper's Fig. 13 pair)"},
	{Name: "disk.reload_ms", Unit: "ms", Better: "lower", Layer: "disk", Source: srcCount, Moves: "recover_s@terasort_ft"},
	{Name: "disk.reloaded_share", Unit: "ratio", Better: "higher", Layer: "disk", Source: srcCount, Moves: "recover_s@terasort_ft"},
	{Name: "diskio.write_mb_s", Unit: "MB/s", Better: "higher", Layer: "disk", Source: srcMicro, Moves: "floor under spill and checkpoint writes"},
	{Name: "diskio.read_mb_s", Unit: "MB/s", Better: "higher", Layer: "disk", Source: srcMicro, Moves: "floor under spill read-back and checkpoint reload"},
	{Name: "hdfs.read_mb_s", Unit: "MB/s", Better: "higher", Layer: "disk", Source: srcMicro, Moves: "floor under every batch job's input scan"},
	{Name: "hdfs.write_mb_s", Unit: "MB/s", Better: "higher", Layer: "disk", Source: srcMicro, Moves: "floor under terasort's output write"},

	// launch: proc mode, which the in-process workloads bypass by construction.
	{Name: "launch.start_ms", Unit: "ms", Better: "lower", Layer: "launch", Source: srcMicro, Moves: "none in-process; proc-mode start-up"},
	{Name: "launch.shutdown_ms", Unit: "ms", Better: "lower", Layer: "launch", Source: srcMicro, Moves: "none in-process"},
	{Name: "launch.job_ms.shm", Unit: "ms", Better: "lower", Layer: "launch", Source: srcMicro, Moves: "none in-process; answers shm-vs-tcp in proc mode"},
	{Name: "launch.job_ms.tcp", Unit: "ms", Better: "lower", Layer: "launch", Source: srcMicro, Moves: "none in-process"},

	// trace: what observability costs.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Source: srcHarness, Moves: "budget for the observability item (<= 2 %)"},
	{Name: "trace.events", Unit: "count", Better: "lower", Layer: "trace", Source: srcHarness, Moves: "trace.overhead_pct"},

	// yardstick: the box's speed during the traced run, and the median result
	// before calibration (batch: untraced job wall time; stream_agg: the same
	// number as end to end, which is not calibrated).
	{Name: "yard.pass_ms", Unit: "ms", Better: "lower", Layer: "reference", Source: srcHarness, Moves: "none: the program cannot move it; it is what calibrated timings are scaled by"},
	{Name: "raw.result_p50_ms", Unit: "ms", Better: "lower", Layer: "reference", Source: srcHarness, Moves: "result_p50_ms, as the wall clock read it"},

	// reference: one goroutine, no runtime.
	{Name: "ref.sort_s", Unit: "s", Better: "lower", Layer: "reference", Source: srcMicro, Moves: "denominator for result_p50_ms@terasort"},
	{Name: "ref.wordcount_s", Unit: "s", Better: "lower", Layer: "reference", Source: srcMicro, Moves: "denominator for result_p50_ms@wordcount"},
}

// metricDefs indexes both lists by name.
var metricDefs = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		d.order = i
		m[d.Name] = d
	}
	return m
}()
