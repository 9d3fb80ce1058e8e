package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"datampi/internal/fault"
)

// runWithDeadline runs the job and fails the test if Run hangs: the whole
// point of deadline-based failure detection is that a dead rank aborts the
// job instead of wedging it.
func runWithDeadline(t *testing.T, job *Job, opts ...RunOption) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(job, opts...)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("job hung: rank death was not detected")
		return nil, nil
	}
}

// TestRankDeathMidShuffleRecovery is the headline fault-tolerance scenario
// (the paper's §IV-E kill-and-restart experiment, driven by the fault
// injector instead of a cooperative counter): a worker process dies mid-
// shuffle, the master detects it via ErrRankDead instead of hanging, and a
// restarted job recovers the checkpointed records and produces exact
// output.
func TestRankDeathMidShuffleRecovery(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "mem", true: "tcp"}[tcp], func(t *testing.T) {
			docs := ftDocs()
			dir := t.TempDir()
			var opts []RunOption
			if tcp {
				opts = append(opts, WithTCPTransport())
			}

			// Attempt 1: worker process 1 (world rank 1) dies after its
			// 25th transport send. The threshold must hold for any task
			// placement: slot scheduling guarantees rank 1 only one O task
			// (~40+ frame sends), and its first checkpoint chunk commits
			// after ~6 sends — so by send 25 chunks exist and the job
			// cannot have finished.
			var out1 collector
			job1 := wordCountJob(docs, 3, 2, &out1)
			job1.Conf.FaultTolerance = true
			job1.Conf.CheckpointDir = dir
			job1.Conf.SPLBytes = 256
			job1.Conf.CheckpointRecords = 50
			job1.hooks.FaultPlan = fault.KillRank(1, 1, 25)
			_, err := runWithDeadline(t, job1, opts...)
			if !errors.Is(err, ErrRankDead) {
				t.Fatalf("job with killed worker: got %v, want ErrRankDead", err)
			}
			chunks, err := listChunks(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunks) == 0 {
				t.Fatal("no checkpoint chunks survived the crash (kill fired too early)")
			}

			// Attempt 2: a clean restart recovers from the checkpoints.
			var out2 collector
			job2 := wordCountJob(docs, 3, 2, &out2)
			job2.Conf.FaultTolerance = true
			job2.Conf.CheckpointDir = dir
			job2.Conf.SPLBytes = 256
			job2.Conf.CheckpointRecords = 50
			res, err := runWithDeadline(t, job2, opts...)
			if err != nil {
				t.Fatalf("recovery run: %v", err)
			}
			if res.RecordsReloaded == 0 {
				t.Error("recovery reloaded no checkpointed records")
			}
			checkCounts(t, &out2, wantCounts(docs))
		})
	}
}

// TestWorkerDeathFailsFastWithoutFT: even with no fault tolerance
// configured, a dead worker must abort the job with ErrRankDead promptly —
// never hang the master.
func TestWorkerDeathFailsFastWithoutFT(t *testing.T) {
	var out collector
	job := wordCountJob(ftDocs(), 2, 2, &out)
	job.Conf.SPLBytes = 256
	job.hooks.FaultPlan = fault.KillRank(7, 0, 25)
	start := time.Now()
	_, err := runWithDeadline(t, job)
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("got %v, want ErrRankDead", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Errorf("death detection took %v", time.Since(start))
	}
}

// TestJobSurvivesLinkChaos: benign link faults — probabilistic delays
// everywhere, connection resets on TCP — must be invisible at the
// application level: the job completes with exact output on both
// transports.
func TestJobSurvivesLinkChaos(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "mem", true: "tcp"}[tcp], func(t *testing.T) {
			docs := ftDocs()
			plan := &fault.Plan{Seed: 0xC0FFEE, Rules: []fault.Rule{
				{Kind: fault.Delay, Src: fault.Any, Dst: fault.Any, Prob: 0.25, Latency: time.Millisecond},
				{Kind: fault.Reset, Src: fault.Any, Dst: fault.Any, Prob: 0.05},
			}}
			var opts []RunOption
			if tcp {
				opts = append(opts, WithTCPTransport())
			}
			var out collector
			job := wordCountJob(docs, 3, 2, &out)
			job.hooks.FaultPlan = plan
			if _, err := runWithDeadline(t, job, opts...); err != nil {
				t.Fatalf("job under link chaos: %v", err)
			}
			checkCounts(t, &out, wantCounts(docs))
		})
	}
}

// TestMasterSweepDetectsSilentWorkerDeath: a worker that dies while owing
// the master an event — without any send failing anywhere — is found by
// the master's IOTimeout failure-detector sweep. The stalled task blocks
// until after detection, proving the sweep (not a send error) fired.
func TestMasterSweepDetectsSilentWorkerDeath(t *testing.T) {
	inj := fault.NewInjector(&fault.Plan{Seed: 1})
	release := make(chan struct{})
	var once sync.Once
	var out collector
	job := wordCountJob(ftDocs(), 2, 2, &out)
	job.hooks.FaultInjector = inj
	job.Conf.IOTimeout = 200 * time.Millisecond
	orig := job.OTask
	job.OTask = func(ctx *Context) error {
		if ctx.Proc() == 1 {
			once.Do(func() { inj.Kill(1) })
			<-release
			return errors.New("stalled task released")
		}
		return orig(ctx)
	}
	// Unblock the stalled task well after the 200ms sweep has had every
	// chance to fire, so teardown can finish.
	go func() {
		time.Sleep(5 * time.Second)
		close(release)
	}()
	start := time.Now()
	_, err := runWithDeadline(t, job)
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("got %v, want ErrRankDead", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Errorf("silent death detection took %v", time.Since(start))
	}
}

// TestFaultPlanDefaultsIOTimeout: configuring a fault plan switches on the
// IOTimeout default so detection works without explicit tuning.
func TestFaultPlanDefaultsIOTimeout(t *testing.T) {
	task := func(*Context) error { return nil }
	j := &Job{NumO: 1, NumA: 1, OTask: task, ATask: task}
	j.hooks.FaultPlan = &fault.Plan{Seed: 1}
	if err := j.validate(); err != nil {
		t.Fatal(err)
	}
	if j.Conf.IOTimeout <= 0 {
		t.Fatal("fault injection without an IOTimeout default")
	}
	j2 := &Job{NumO: 1, NumA: 1, OTask: task, ATask: task}
	if err := j2.validate(); err != nil {
		t.Fatal(err)
	}
	if j2.Conf.IOTimeout != 0 {
		t.Fatalf("IOTimeout defaulted to %v without fault injection", j2.Conf.IOTimeout)
	}
}

// TestConcurrentFailSeenByCountSend: err() skips failMu until the failed
// flag is stored, which happens only after failErr is set. A failure
// recorded while senders run must still stop every one of them with that
// error (run under -race, this also checks the publication is ordered).
func TestConcurrentFailSeenByCountSend(t *testing.T) {
	rt := &Runtime{job: &Job{}, aborted: make(chan struct{}), failRank: -1}
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := rt.countSend(); err != nil {
					if !errors.Is(err, boom) {
						t.Errorf("countSend failed with %v, want %v", err, boom)
					}
					return
				}
			}
		}()
	}
	rt.fail(boom)
	wg.Wait()
	if err := rt.err(); !errors.Is(err, boom) {
		t.Fatalf("err() = %v after fail, want %v", err, boom)
	}
}
