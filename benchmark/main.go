// Command benchmark is the benchmark of this repository: four workloads
// from the paper's evaluation, run end to end through the public API,
// every output checked against a reference, every metric printed by name.
//
//	go run ./benchmark                  all workloads, end-to-end metrics
//	go run ./benchmark -traced          all workloads, per-layer metrics + Chrome traces
//	go run ./benchmark -selfcheck       the end-to-end suite twice, compared against the bounds
//	go run ./benchmark --workload terasort --seed 7 --seconds 20 --trace 0
//
// The last form is what BENCHMARK.json's command resolves to (through
// run.sh, which builds the binary inside the checkout first); it ends by
// printing one JSON object on the last line of standard output. See
// README.md for what each metric means and which layer should move it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"datampi"
	"datampi/internal/launch"
)

func main() {
	// The launch probes spawn copies of this binary as worker processes;
	// those must enter the worker loop before flag parsing — their command
	// line is the launcher's, not theirs.
	if launch.IsSpawnedWorker() {
		if err := serveAsWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run one workload and end with the result as one JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measuring window per workload")
	traceOn := flag.Int("trace", 0, "with -workload: 1 makes the traced run (per-layer metrics), 0 the untraced one (end-to-end metrics)")
	traced := flag.Bool("traced", false, "make the traced run of every workload")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two against the bounds")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for stored results and Chrome trace files")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced || *traceOn == 1,
		outDir:  *outDir,
	}
	cfg.env = captureEnv(*seed)
	printEnv(os.Stdout, cfg.env)

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(os.Stdout, cfg))
	case *name == "":
		failed := false
		for i := range workloads {
			res, err := runOne(&workloads[i], cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", workloads[i].name, err)
				os.Exit(1)
			}
			printResult(os.Stdout, res)
			failed = failed || res.Failed > 0
		}
		if failed {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := runOne(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(os.Stdout, res)
		// Failed operations are reported in the result line, with exit 0:
		// the driver reads "failed", a crash is what a non-zero exit means.
		if err := printResultLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// runOne runs one workload and asserts it cleaned up after itself: no
// harness temp dir, checkpoint dir or shared-memory segment may survive.
func runOne(w *workload, cfg runConfig) (*runResult, error) {
	// Load is sized to the machine: the workloads run 2 sources / 4 tasks
	// on GOMAXPROCS = nproc and start no generator thread beyond them.
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS %d != nproc %d; numbers are not comparable with the reference box's\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	before := scanResidue()
	res, err := w.run(cfg)
	if err != nil {
		return res, err
	}
	if left := residue(before); len(left) > 0 {
		res.Attempted++
		res.fail("left behind: %v", left)
	}
	return res, storeResult(cfg.outDir, cfg.env, res)
}

// serveAsWorker is the worker-process half of the launch probes. A fleet
// started by launch.Launch ships a job spec; a bare launch.StartCluster
// (the start/shutdown probe) ships none and gets a worker that joins the
// world and idles until the launcher closes it.
func serveAsWorker() error {
	if os.Getenv(launch.EnvSpec) != "" {
		return launch.RunSpawnedWorker()
	}
	_, err := datampi.RunWorkerIfSpawned(func() *datampi.Job {
		idle := func(*datampi.Context) error { return nil }
		return &datampi.Job{Name: "idle", NumO: 1, NumA: 1, Procs: benchProcs, OTask: idle, ATask: idle}
	})
	return err
}
