// Command benchsuite regenerates every table and figure of the paper's
// evaluation section (§V): Fig. 1(a)/(b) communication primitives,
// Fig. 8(a)/(b) parameter tuning, Fig. 9 progress, Fig. 10(a)-(c) workload
// comparisons, Fig. 11 resource profiles, Fig. 12 spill-over, Fig. 13
// fault tolerance, Fig. 14 scalability, plus design ablations.
//
// Usage:
//
//	benchsuite [-exp all|fig1a|fig1b|fig8a|fig8b|fig9|fig10a|fig10b|fig10c|
//	            wordcount|fig11|fig12|fig13a|fig13b|fig14a|fig14b|ablations]
//	           [-quick]
//
// The regression harness runs the shuffle micro-benchmarks instead of the
// figure experiments and snapshots ns/op plus the runtime shuffle counters:
//
//	benchsuite -regress [-quick] [-bench-out BENCH_shuffle.json]
//	           [-against BENCH_shuffle.json] [-trace out.json]
//	           [-prepare-workers N] [-merge-workers N]
//	           [-shm-off] [-chunk-bytes N]
//
// The streaming regression runs the resident-service comparison instead
// (DataMPI StreamJob vs the internal S4 baseline, same paced windowed
// aggregation) and snapshots sustained events/sec plus p50/p99/p999
// latency for each system:
//
//	benchsuite -stream-regress [-stream-rate N] [-quick]
//	           [-bench-out BENCH_stream.json] [-against BENCH_stream.json]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"datampi/internal/bench"
	"datampi/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment id, comma list, or 'all'")
	quick := flag.Bool("quick", false, "use small test-scale inputs")
	outPath := flag.String("o", "", "also write the output to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	regress := flag.Bool("regress", false, "run the benchmark-regression harness instead of the experiments")
	benchOut := flag.String("bench-out", "", "write the regression snapshot JSON to this path")
	against := flag.String("against", "", "compare the regression run against this baseline snapshot (informational)")
	tracePath := flag.String("trace", "", "with -regress: write a Chrome trace_event JSON of one traced run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	prepWorkers := flag.Int("prepare-workers", 0, "with -regress: shuffle prepare-pool width (0 = GOMAXPROCS)")
	mergeWorkers := flag.Int("merge-workers", 0, "with -regress: A-side merge-pool width (0 = GOMAXPROCS)")
	shmOff := flag.Bool("shm-off", false, "with -regress: disable the shared-memory ring transport (shuffle/shm entries fall back to TCP)")
	chunkBytes := flag.Int("chunk-bytes", 0, "with -regress: large-value chunk threshold for the shuffle-skew entry (0 = entry default)")
	streamRegress := flag.Bool("stream-regress", false, "run the streaming-regression harness (DataMPI vs S4 windowed aggregation) instead of the experiments")
	streamRate := flag.Int("stream-rate", 10000, "with -stream-regress: offered event rate per second (default 10x the paper's Fig. 10(c) 1K events/sec)")
	flag.Parse()

	if *streamRegress {
		runStreamRegress(*streamRate, *quick, *benchOut, *against)
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "benchsuite: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	o := bench.Default()
	if *quick {
		o = bench.Quick()
	}
	if *regress {
		o.PrepareWorkers = *prepWorkers
		o.MergeWorkers = *mergeWorkers
		o.ShmOff = *shmOff
		o.ChunkBytes = *chunkBytes
		runRegress(o, *quick, *benchOut, *against, *tracePath)
		return
	}
	cpDir := func() string {
		d, err := os.MkdirTemp("", "datampi-cp-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return d
	}
	type driver struct {
		id  string
		run func() (*bench.Table, error)
	}
	drivers := []driver{
		{"fig1a", bench.Fig1a},
		{"fig1b", bench.Fig1b},
		{"fig8a", func() (*bench.Table, error) { return bench.Fig8a(o) }},
		{"fig8b", func() (*bench.Table, error) { return bench.Fig8b(o) }},
		{"fig9", func() (*bench.Table, error) { return bench.Fig9(o) }},
		{"fig10a", func() (*bench.Table, error) { return bench.Fig10a(o) }},
		{"wordcount", func() (*bench.Table, error) { return bench.WordCountExp(o) }},
		{"fig10b", func() (*bench.Table, error) { return bench.Fig10b(o) }},
		{"fig10c", func() (*bench.Table, error) { return bench.Fig10c(o) }},
		{"fig11", func() (*bench.Table, error) { return bench.Fig11(o) }},
		{"fig12", func() (*bench.Table, error) { return bench.Fig12(o) }},
		{"fig13a", func() (*bench.Table, error) { return bench.Fig13a(o, cpDir) }},
		{"fig13b", func() (*bench.Table, error) { return bench.Fig13b(o, cpDir) }},
		{"fig14a", bench.Fig14a},
		{"fig14b", bench.Fig14b},
		{"ablations", bench.Ablations},
	}
	if *list {
		for _, d := range drivers {
			fmt.Println(d.id)
		}
		return
	}
	var sink *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	want := strings.Split(*exp, ",")
	match := func(id string) bool {
		for _, w := range want {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, d := range drivers {
		if !match(d.id) {
			continue
		}
		t, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		if sink != nil {
			fmt.Fprintln(sink, t.Render())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runRegress drives the regression harness: run, print, optionally snapshot
// and compare. A baseline mismatch is reported but never fails the run —
// CI keeps perf deltas non-blocking.
func runRegress(o bench.Opts, quick bool, benchOut, against, tracePath string) {
	var tr *trace.Tracer
	if tracePath != "" {
		tr = trace.New()
	}
	rep, err := bench.Regress(o, quick, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	for _, e := range rep.Entries {
		fmt.Printf("%-16s %10d ns/op  %10d B/op  %8d allocs/op  (%d iterations)\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Iterations)
		if e.Counters != nil {
			fmt.Printf("%-16s shuffle %d records / %d bytes, combine %d->%d\n", "",
				e.Counters["shuffle.records.sent"], e.Counters["shuffle.bytes.sent"],
				e.Counters["combine.records.in"], e.Counters["combine.records.out"])
			if bp, ok := e.Counters["cp.overhead.bp"]; ok {
				fmt.Printf("%-16s checkpoint overhead %+.2f%% vs checkpoint/off\n", "", float64(bp)/100)
			}
			if ns, ok := e.Counters["recovery.ns.per.lost.record"]; ok {
				fmt.Printf("%-16s recovery: %d records reloaded, %d lost, %d ns per lost record\n", "",
					e.Counters["recovery.reloaded.records"], e.Counters["recovery.lost.records"], ns)
			}
		}
	}
	if against != "" {
		base, err := bench.ReadRegress(against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Printf("\nvs baseline %s (%s, quick=%v):\n", against, base.Date, base.Quick)
		for _, line := range bench.CompareRegress(base, rep) {
			fmt.Println(" ", line)
		}
	}
	if benchOut != "" {
		if err := bench.WriteRegress(rep, benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsuite: snapshot written to %s\n", benchOut)
	}
	if tr != nil {
		if err := tr.WriteFile(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsuite: trace written to %s\n", tracePath)
	}
}

// runStreamRegress drives the streaming harness: both systems run the
// same paced windowed aggregation, and the snapshot records sustained
// events/sec plus the latency CDF tail of each. Like runRegress, a
// baseline mismatch is reported but never fails the run.
func runStreamRegress(rate int, quick bool, benchOut, against string) {
	rep, err := bench.StreamRegress(rate, quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	for _, e := range rep.Entries {
		c := e.Counters
		fmt.Printf("%-16s %8d events/sec sustained  p50 %8.2fms  p99 %8.2fms  p999 %8.2fms\n",
			e.Name, c["stream.rate.events.per.sec"],
			float64(c["stream.lat.p50.ns"])/1e6,
			float64(c["stream.lat.p99.ns"])/1e6,
			float64(c["stream.lat.p999.ns"])/1e6)
		if fired, ok := c["stream.windows.fired"]; ok {
			fmt.Printf("%-16s windows fired %d, events in %d, credits granted %d, credit stalls %d\n", "",
				fired, c["stream.events.in"], c["stream.credits.granted"], c["stream.credits.stalls"])
		}
	}
	if against != "" {
		base, err := bench.ReadRegress(against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Printf("\nvs baseline %s (%s, quick=%v):\n", against, base.Date, base.Quick)
		for _, line := range bench.CompareRegress(base, rep) {
			fmt.Println(" ", line)
		}
	}
	if benchOut != "" {
		if err := bench.WriteRegress(rep, benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsuite: snapshot written to %s\n", benchOut)
	}
}
