package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"datampi/internal/fault"
)

// TestRandomizedCrashRecovery is the fault-tolerance property test: for
// random checkpoint-round lengths, crash points, and job geometries, a
// crashed-and-recovered word count must always produce exactly correct
// counts — the paper's claim that the KV library-level checkpoint is
// transparent to deterministic applications.
func TestRandomizedCrashRecovery(t *testing.T) {
	iters := 10
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewSource(1402)) // IPDPS'14 in Phoenix, AZ
	for i := 0; i < iters; i++ {
		numO := 1 + rng.Intn(4)
		numA := 1 + rng.Intn(3)
		procs := 1 + rng.Intn(3)
		perTask := 200 + rng.Intn(400)
		cpRecords := int64(20 + rng.Intn(100))
		total := int64(numO * perTask)
		crashAt := 1 + rng.Int63n(total-1)

		name := fmt.Sprintf("i%d_O%dA%dP%d_cp%d_crash%d", i, numO, numA, procs, cpRecords, crashAt)
		t.Run(name, func(t *testing.T) {
			docs := make([][]string, numO)
			for d := range docs {
				for j := 0; j < perTask; j++ {
					docs[d] = append(docs[d], fmt.Sprintf("w%03d", (d*131+j*17)%251))
				}
			}
			dir := t.TempDir()
			var out1 collector
			job1 := wordCountJob(docs, numA, procs, &out1)
			job1.Conf.FaultTolerance = true
			job1.Conf.CheckpointDir = dir
			job1.Conf.CheckpointRecords = cpRecords
			job1.Conf.InjectFailAfterCPRecords = crashAt
			_, err := Run(job1)
			if err == nil {
				// The crash point may exceed what gets durably checkpointed
				// (tail records under one round); a clean finish is only
				// acceptable then — and the output must still be exact.
				checkCounts(t, &out1, wantCounts(docs))
				return
			}
			if !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("unexpected failure: %v", err)
			}
			var out2 collector
			job2 := wordCountJob(docs, numA, procs, &out2)
			job2.Conf.FaultTolerance = true
			job2.Conf.CheckpointDir = dir
			job2.Conf.CheckpointRecords = cpRecords
			if _, err := Run(job2); err != nil {
				t.Fatal(err)
			}
			checkCounts(t, &out2, wantCounts(docs))
		})
	}
}

// TestDoubleCrashRecovery crashes, recovers partway, crashes again, and
// recovers fully: checkpoints from both attempts must compose.
func TestDoubleCrashRecovery(t *testing.T) {
	docs := ftDocs()
	dir := t.TempDir()
	mk := func(out *collector, injectCP int64) *Job {
		job := wordCountJob(docs, 3, 2, out)
		job.Conf.FaultTolerance = true
		job.Conf.CheckpointDir = dir
		job.Conf.CheckpointRecords = 64
		job.Conf.InjectFailAfterCPRecords = injectCP
		return job
	}
	var o1, o2, o3 collector
	if _, err := Run(mk(&o1, 400)); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("first crash: %v", err)
	}
	// Second attempt crashes later (counting only NEW durable records).
	if _, err := Run(mk(&o2, 500)); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("second crash: %v", err)
	}
	if _, err := Run(mk(&o3, 0)); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &o3, wantCounts(docs))
}

// TestCrashRecoveryMatrix pins recovery exactness across the failure
// surface: a kill at each pipeline stage (before any commit, inside a
// commit's torn window, after records are durable, and a rank death while
// merging), on both transports. Whatever the crash point, a recovery run over the same checkpoint directory must
// produce exactly the clean run's counts — no duplicated and no lost
// records.
func TestCrashRecoveryMatrix(t *testing.T) {
	docs := ftDocs()
	want := wantCounts(docs)

	kills := []struct {
		name string
		arm  func(job *Job) // arm the crash for the first attempt only
		// injected marks failpoints that surface as ErrInjectedFailure;
		// the rank death surfaces as a transport error instead.
		injected bool
	}{
		{"preShuffle", func(job *Job) {
			job.hooks.InjectFailAfterRecords = 40
		}, true},
		{"midCommit", func(job *Job) {
			// Torn commit: the hook error fires after the chunk's tmp file
			// is written and fsynced, before the atomic rename — recovery
			// must treat the chunk as if it never existed.
			var commits atomic.Int64
			job.hooks.CheckpointCommitHook = func(task, seq int) error {
				if commits.Add(1) == 3 {
					return ErrInjectedFailure
				}
				return nil
			}
		}, true},
		{"postSeal", func(job *Job) {
			job.Conf.InjectFailAfterCPRecords = 700
		}, true},
		{"duringMerge", func(job *Job) {
			job.hooks.FaultPlan = fault.KillRank(7, 1, 25)
			job.Conf.IOTimeout = 200 * time.Millisecond
		}, false},
	}
	transports := []struct {
		name string
		opts []RunOption
	}{
		{"mem", nil},
		{"tcp", []RunOption{WithTCPTransport()}},
	}
	for _, k := range kills {
		for _, tr := range transports {
			t.Run(k.name+"_"+tr.name, func(t *testing.T) {
				dir := t.TempDir()
				var out1 collector
				job1 := wordCountJob(docs, 3, 2, &out1)
				job1.Conf.FaultTolerance = true
				job1.Conf.CheckpointDir = dir
				job1.Conf.CheckpointRecords = 64
				k.arm(job1)
				_, err := Run(job1, tr.opts...)
				if err == nil {
					// The crash point can outrun the run (e.g. the torn
					// commit count never reached): a clean finish is
					// acceptable, but must already be exact.
					checkCounts(t, &out1, want)
					return
				}
				if k.injected && !errors.Is(err, ErrInjectedFailure) {
					t.Fatalf("unexpected failure: %v", err)
				}
				var out2 collector
				job2 := wordCountJob(docs, 3, 2, &out2)
				job2.Conf.FaultTolerance = true
				job2.Conf.CheckpointDir = dir
				job2.Conf.CheckpointRecords = 64
				if _, err := Run(job2, tr.opts...); err != nil {
					t.Fatal(err)
				}
				checkCounts(t, &out2, want)
			})
		}
	}
}
