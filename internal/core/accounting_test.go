package core

import (
	"errors"
	"fmt"
	"testing"
)

// Send accounting: tasks count their own sends and runUser adds each
// task's count to the job total once, while InjectFailAfterRecords keeps
// an exact global per-record count of its own.

// countJob has numO O tasks that each send perTask records (over 8
// distinct keys) to a draining A side.
func countJob(numO, perTask int) *Job {
	docs := make([][]string, numO)
	for i := range docs {
		for j := 0; j < perTask; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("k%d", j%8))
		}
	}
	return wordCountJob(docs, 2, 2, &collector{})
}

// The injected failure fires on the total across O tasks, exactly: with 4
// tasks of 1000 records each, a threshold of 2500 (above any one task's
// count) fires, 3999 fires, and 4000 (every record) does not.
func TestInjectFailAfterRecordsCountsGlobally(t *testing.T) {
	const numO, perTask = 4, 1000
	for _, tr := range []struct {
		name string
		opts []RunOption
	}{{"mem", nil}, {"tcp", []RunOption{WithTCPTransport()}}} {
		t.Run(tr.name, func(t *testing.T) {
			for _, c := range []struct {
				after int64
				fail  bool
			}{{2500, true}, {numO*perTask - 1, true}, {numO * perTask, false}} {
				job := countJob(numO, perTask)
				job.hooks.InjectFailAfterRecords = c.after
				res, err := Run(job, tr.opts...)
				if got := errors.Is(err, ErrInjectedFailure); got != c.fail {
					t.Fatalf("InjectFailAfterRecords=%d: err = %v, want injected failure %v", c.after, err, c.fail)
				}
				if !c.fail && res.RecordsSent != numO*perTask {
					t.Errorf("InjectFailAfterRecords=%d: RecordsSent = %d, want %d", c.after, res.RecordsSent, numO*perTask)
				}
			}
		})
	}
}

// checkSentTotals asserts RecordsSent == Σ OTaskSent == want.
func checkSentTotals(t *testing.T, res *Result, want int64) {
	t.Helper()
	var sum int64
	for _, n := range res.OTaskSent {
		sum += n
	}
	if res.RecordsSent != sum || sum != want {
		t.Errorf("RecordsSent = %d, Σ OTaskSent = %d, want both %d", res.RecordsSent, sum, want)
	}
}

// An O task that fails mid-run, then the checkpoint restart: the restart
// sends exactly what its reload did not cover, and reports it both ways.
func TestRecordsSentAfterTaskErrorAndRestart(t *testing.T) {
	docs := ftDocs()
	var total int64
	for _, d := range docs {
		total += int64(len(d))
	}
	dir := t.TempDir()
	boom := errors.New("boom")
	job1 := wordCountJob(docs, 3, 2, &collector{})
	job1.Conf.FaultTolerance = true
	job1.Conf.CheckpointDir = dir
	job1.Conf.CheckpointRecords = 100
	send := job1.OTask
	job1.OTask = func(ctx *Context) error {
		if ctx.Rank() != 2 {
			return send(ctx)
		}
		for _, w := range docs[2][:300] {
			if err := ctx.Send(w, int64(1)); err != nil {
				return err
			}
		}
		// The 300th record closed a checkpoint round: commit it, then fail.
		if err := ctx.proc.flushQueue(); err != nil {
			return err
		}
		ctx.proc.committer.drain()
		return boom
	}
	if _, err := Run(job1); !errors.Is(err, boom) {
		t.Fatalf("first attempt: err = %v, want %v", err, boom)
	}

	var out collector
	job2 := wordCountJob(docs, 3, 2, &out)
	job2.Conf.FaultTolerance = true
	job2.Conf.CheckpointDir = dir
	job2.Conf.CheckpointRecords = 100
	res, err := Run(job2)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(docs))
	if res.RecordsReloaded == 0 {
		t.Fatal("the restart reloaded nothing")
	}
	checkSentTotals(t, res, total-res.RecordsReloaded)
}

// runUser adds a call's sends to the job total once whether the task
// returns, fails or panics, and only that call's share of a context's
// cumulative count (Iteration contexts persist across rounds).
func TestRunUserFlushesSends(t *testing.T) {
	rt := &Runtime{job: &Job{}}
	ctx := &Context{}
	var want int64
	for _, s := range []struct {
		name  string
		sends int64
		end   func() error
	}{
		{"ok", 3, func() error { return nil }},
		{"error", 5, func() error { return errors.New("boom") }},
		{"panic", 7, func() error { panic("boom") }},
	} {
		err := rt.runUser(func(c *Context) error {
			c.sent += s.sends
			return s.end()
		}, ctx)
		if (err == nil) != (s.name == "ok") {
			t.Fatalf("%s: err = %v", s.name, err)
		}
		want += s.sends
		if got := rt.sent.Load(); got != want || ctx.sent != want {
			t.Fatalf("after %s: rt.sent = %d, ctx.sent = %d, want %d", s.name, got, ctx.sent, want)
		}
	}
}

// mpi.bytes.sent is read after Run's teardown: the TCP writers count a
// batch only once it is written, and the world's close drain is what
// waits for them, so a snapshot taken before it could miss the run's last
// sends. Twenty clean runs of one TeraSort-shaped job must read the same
// byte count, every sent byte received.
func TestMPIBytesSentSettled(t *testing.T) {
	var want int64
	for i := 0; i < 20; i++ {
		var out identityOutput
		res, err := Run(identityJob("terasort", 500, &out), WithTCPTransport())
		if err != nil {
			t.Fatal(err)
		}
		sent, recv := res.RuntimeCounters["mpi.bytes.sent"], res.RuntimeCounters["mpi.bytes.received"]
		if sent != recv {
			t.Errorf("run %d: mpi.bytes.sent %d, mpi.bytes.received %d", i, sent, recv)
		}
		if i == 0 {
			want = sent
		} else if sent != want {
			t.Errorf("run %d: mpi.bytes.sent %d, run 0 read %d", i, sent, want)
		}
	}
}
