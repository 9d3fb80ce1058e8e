package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datampi/internal/mpi"
	"datampi/internal/trace"
)

// joinDistWorlds builds a (procs+1)-rank distributed world inside one
// test process: procs worker worlds plus the master world at rank procs,
// each with its own TCP endpoint, exactly as separate OS processes would
// construct them. Index i holds rank i's world; cleanup closes all.
func joinDistWorlds(t *testing.T, procs int, opts ...mpi.Option) []*mpi.World {
	t.Helper()
	n := procs + 1
	eps := make([]*mpi.Endpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := mpi.ListenEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	worlds := make([]*mpi.World, n)
	for i := range worlds {
		w, err := mpi.JoinWorld(n, i, eps[i], addrs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

// A full MapReduce word count with the master and every worker on their
// own single-rank world: results, counter totals, and the merged trace
// must match what the all-in-one-process runtime produces.
func TestDistRunWordCount(t *testing.T) {
	const procs = 3

	// Oracle: the same job run entirely in-process.
	oout := &collector{}
	ojob := wordCountJob(testDocs, 4, procs, oout)
	ores, err := Run(ojob, WithTCPTransport())
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, oout, wantCounts(testDocs))

	worlds := joinDistWorlds(t, procs)
	out := &collector{}
	var wg sync.WaitGroup
	workerErrs := make([]error, procs)
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			wj := wordCountJob(testDocs, 4, procs, out)
			wj.Trace = trace.New()
			workerErrs[r] = RunWorker(wj, worlds[r], r, 0)
		}(r)
	}
	mjob := wordCountJob(testDocs, 4, procs, &collector{})
	mjob.Trace = trace.New()
	mjob.Conf.IOTimeout = 2 * time.Second
	res, err := RunContext(nil, mjob, WithWorld(worlds[procs]))
	wg.Wait()
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	for r, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", r, werr)
		}
	}
	checkCounts(t, out, wantCounts(testDocs))

	// The shuffle volume is a deterministic function of the job, so the
	// distributed totals must match the in-process oracle exactly.
	for _, name := range []string{"shuffle.bytes.sent", "shuffle.bytes.received",
		"shuffle.records.sent", "shuffle.records.received"} {
		if got, want := res.RuntimeCounters[name], ores.RuntimeCounters[name]; got != want {
			t.Errorf("%s = %d, want %d (oracle)", name, got, want)
		}
	}
	// Workers count sends per task and report the total on their bye.
	var words int64
	for _, d := range testDocs {
		words += int64(len(d))
	}
	checkSentTotals(t, res, words)
	checkSentTotals(t, ores, words)
	if res.BytesShuffled != ores.BytesShuffled {
		t.Errorf("BytesShuffled = %d, want %d", res.BytesShuffled, ores.BytesShuffled)
	}

	// Every worker's trace buffer must have been merged into the master's:
	// one process row per rank, with at least one task span each.
	taskSpans := map[int]int{}
	for _, e := range mjob.Trace.Events() {
		if e.Cat == "task" {
			taskSpans[e.PID]++
		}
	}
	for r := 0; r < procs; r++ {
		if taskSpans[r] == 0 {
			t.Errorf("merged trace has no task spans for worker %d", r)
		}
	}
}

// A worker process that joins the world but never serves its rank (the
// moral equivalent of a wedged child) must not hang the master: once the
// launcher declares the rank dead, the master's IOTimeout sweep converts
// it into a typed ErrRankDead failure.
func TestDistRunWorkerDeclaredDead(t *testing.T) {
	const procs = 2
	worlds := joinDistWorlds(t, procs)
	out := &collector{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wj := wordCountJob(testDocs, 2, procs, out)
		RunWorker(wj, worlds[0], 0, 0) // fails once the master aborts; that's fine
	}()
	// Rank 1 joined the rendezvous-equivalent (its world exists) but its
	// RunWorker never starts. The launcher notices and declares it dead.
	time.AfterFunc(100*time.Millisecond, func() { worlds[procs].DeclareDead(1) })

	mjob := wordCountJob(testDocs, 2, procs, &collector{})
	mjob.Conf.IOTimeout = 200 * time.Millisecond
	start := time.Now()
	_, err := RunContext(nil, mjob, WithWorld(worlds[procs]))
	if err == nil {
		t.Fatal("master completed despite a dead worker")
	}
	if !errors.Is(err, mpi.ErrRankDead) {
		t.Fatalf("master error = %v, want ErrRankDead", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("master error %v is not a *RunError", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("death detection took %v", d)
	}
	for _, w := range worlds {
		w.Close()
	}
	wg.Wait()
}

// The typed cause of a worker-side failure must survive the event wire:
// a worker that dies mid-run surfaces on the master as ErrRankDead even
// when another worker reports the failure first.
func TestDistEventErrorKeepsType(t *testing.T) {
	ev := eventMsg{Type: "error", Err: "mpi: rank dead", ErrCode: errCodeRankDead}
	if err := eventError(ev); !errors.Is(err, mpi.ErrRankDead) {
		t.Fatalf("eventError(%v) = %v, want ErrRankDead", ev, err)
	}
	ev = eventMsg{Type: "error", Err: "mpi: timeout", ErrCode: errCodeTimeout}
	if err := eventError(ev); !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("eventError(%v) = %v, want ErrTimeout", ev, err)
	}
	ev = eventMsg{Type: "error", Err: "plain"}
	if err := eventError(ev); err == nil || err.Error() != "plain" {
		t.Fatalf("eventError(plain) = %v", err)
	}
	if code := errCodeOf(fmt.Errorf("wrap: %w", mpi.ErrRankDead)); code != errCodeRankDead {
		t.Fatalf("errCodeOf(ErrRankDead) = %q", code)
	}
}
