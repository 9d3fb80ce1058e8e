package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// ftDocs is a deterministic workload large enough that a mid-run failure
// leaves some records checkpointed and some not.
func ftDocs() [][]string {
	docs := make([][]string, 4)
	for i := range docs {
		for j := 0; j < 500; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("w%03d", (i*311+j*7)%200))
		}
	}
	return docs
}

func TestFaultToleranceRecovery(t *testing.T) {
	docs := ftDocs()
	dir := t.TempDir()

	// Attempt 1: inject a failure mid-shuffle.
	var out1 collector
	job1 := wordCountJob(docs, 3, 2, &out1)
	job1.Conf.FaultTolerance = true
	job1.Conf.CheckpointDir = dir
	job1.Conf.SPLBytes = 512
	job1.Conf.CheckpointRecords = 100
	job1.Conf.InjectFailAfterCPRecords = 800
	_, err := Run(job1)
	if !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want ErrInjectedFailure, got %v", err)
	}
	chunks, err := listChunks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("no checkpoint chunks written before the crash")
	}

	// Attempt 2: recover from the checkpoints and finish.
	var out2 collector
	job2 := wordCountJob(docs, 3, 2, &out2)
	job2.Conf.FaultTolerance = true
	job2.Conf.CheckpointDir = dir
	job2.Conf.SPLBytes = 512
	job2.Conf.CheckpointRecords = 100
	res, err := Run(job2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsReloaded == 0 {
		t.Error("recovery reloaded no records")
	}
	if res.ReloadTime <= 0 {
		t.Error("reload time not measured")
	}
	// Exactness of the counts proves no record was lost or duplicated.
	checkCounts(t, &out2, wantCounts(docs))
}

func TestFaultToleranceRecoveryAfterTotalSend(t *testing.T) {
	// Crash after every record was sent (failure during the tail): the
	// recovery run should skip all input and still produce exact output.
	docs := ftDocs()
	total := int64(0)
	for _, d := range docs {
		total += int64(len(d))
	}
	dir := t.TempDir()
	var out1 collector
	job1 := wordCountJob(docs, 2, 2, &out1)
	job1.Conf.FaultTolerance = true
	job1.Conf.CheckpointDir = dir
	job1.Conf.CheckpointRecords = 100
	job1.Conf.InjectFailAfterCPRecords = total - 200
	if _, err := Run(job1); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want ErrInjectedFailure, got %v", err)
	}
	var out2 collector
	job2 := wordCountJob(docs, 2, 2, &out2)
	job2.Conf.FaultTolerance = true
	job2.Conf.CheckpointDir = dir
	if _, err := Run(job2); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out2, wantCounts(docs))
}

func TestFaultToleranceCleanRunNoCrash(t *testing.T) {
	// FT enabled, no crash: output exact, some checkpoint overhead.
	docs := ftDocs()
	dir := t.TempDir()
	var out collector
	job := wordCountJob(docs, 2, 2, &out)
	job.Conf.FaultTolerance = true
	job.Conf.CheckpointDir = dir
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(docs))
	if res.RecordsReloaded != 0 {
		t.Error("clean run should reload nothing")
	}
	chunks, _ := listChunks(dir)
	if len(chunks) == 0 {
		t.Error("FT run wrote no checkpoints")
	}
	// Every visible chunk was committed by the background committer.
	rc := res.RuntimeCounters
	if n := int64(len(chunks)); rc["checkpoint.chunks"] != n || rc["cp.async.commits"] != n {
		t.Errorf("checkpoint.chunks = %d, cp.async.commits = %d, want both %d",
			rc["checkpoint.chunks"], rc["cp.async.commits"], n)
	}
}

func TestCheckpointedRecordsVisibleToTasks(t *testing.T) {
	// After recovery, tasks can observe how many of their records are
	// covered so input loaders can skip.
	dir := t.TempDir()
	docs := ftDocs()
	var out collector
	job1 := wordCountJob(docs, 2, 2, &out)
	job1.Conf.FaultTolerance = true
	job1.Conf.CheckpointDir = dir
	job1.Conf.CheckpointRecords = 100
	job1.Conf.InjectFailAfterCPRecords = 600
	if _, err := Run(job1); !errors.Is(err, ErrInjectedFailure) {
		t.Fatal("expected injected failure")
	}

	var sawSkip atomic.Bool
	job2 := wordCountJob(docs, 2, 2, &out)
	job2.Conf.FaultTolerance = true
	job2.Conf.CheckpointDir = dir
	orig := job2.OTask
	job2.OTask = func(ctx *Context) error {
		if ctx.CheckpointedRecords() > 0 {
			sawSkip.Store(true)
		}
		return orig(ctx)
	}
	if _, err := Run(job2); err != nil {
		t.Fatal(err)
	}
	if !sawSkip.Load() {
		t.Error("no task observed checkpointed records")
	}
}

func TestCheckpointChunkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := newCPWriter(dir, 3)
	if err := w.append([]byte("payload-1"), 10); err != nil {
		t.Fatal(err)
	}
	if err := w.append([]byte("payload-2"), 5); err != nil {
		t.Fatal(err)
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	if err := w.append([]byte("payload-3"), 7); err != nil {
		t.Fatal(err)
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	chunks, err := listChunks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	var payloads []string
	n, err := readChunk(chunks[0].path, func(p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil || n != 15 {
		t.Fatalf("chunk 0: n=%d err=%v", n, err)
	}
	if len(payloads) != 2 || payloads[0] != "payload-1" {
		t.Errorf("payloads = %v", payloads)
	}
	if cnt, err := chunkRecordCount(chunks[1].path); err != nil || cnt != 7 {
		t.Errorf("chunk 1 count = %d, %v", cnt, err)
	}
}

func TestCheckpointAbortDiscardsTmp(t *testing.T) {
	dir := t.TempDir()
	w := newCPWriter(dir, 0)
	if err := w.append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	w.abort()
	chunks, err := listChunks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Errorf("aborted chunk visible: %v", chunks)
	}
}

func TestSealEmptyChunkNoop(t *testing.T) {
	dir := t.TempDir()
	w := newCPWriter(dir, 0)
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	chunks, _ := listChunks(dir)
	if len(chunks) != 0 {
		t.Error("empty seal produced a chunk")
	}
}

func TestMidFlightCrashRecovery(t *testing.T) {
	// The timing-dependent kill (InjectFailAfterRecords): whatever subset
	// of checkpoint rounds made it to disk, recovery must still be exact.
	docs := ftDocs()
	dir := t.TempDir()
	var out1 collector
	job1 := wordCountJob(docs, 3, 2, &out1)
	job1.Conf.FaultTolerance = true
	job1.Conf.CheckpointDir = dir
	job1.Conf.CheckpointRecords = 50
	job1.hooks.InjectFailAfterRecords = 1100
	if _, err := Run(job1); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want ErrInjectedFailure, got %v", err)
	}
	var out2 collector
	job2 := wordCountJob(docs, 3, 2, &out2)
	job2.Conf.FaultTolerance = true
	job2.Conf.CheckpointDir = dir
	job2.Conf.CheckpointRecords = 50
	if _, err := Run(job2); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out2, wantCounts(docs))
}

// countTmp returns the stray in-progress .tmp files under dir.
func countTmp(t *testing.T, dir string) int {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return len(tmps)
}

// A write failure after the tmp file exists must remove it: a leaked .tmp
// per failed chunk would accumulate across a long job's retries.
func TestCheckpointWriteFailureLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()

	// Failure inside append, after MkdirAll + create succeeded.
	w := newCPWriter(dir, 0)
	if err := w.append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // make the next write fail
	if err := w.append([]byte("y"), 1); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if w.f != nil {
		t.Error("failed append left an open file handle")
	}
	if n := countTmp(t, dir); n != 0 {
		t.Errorf("failed append leaked %d .tmp files", n)
	}

	// Failure inside seal (footer write).
	w = newCPWriter(dir, 1)
	if err := w.append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	if err := w.seal(); err == nil {
		t.Fatal("seal on closed file succeeded")
	}
	if n := countTmp(t, dir); n != 0 {
		t.Errorf("failed seal leaked %d .tmp files", n)
	}

	// MkdirAll failure: the checkpoint dir path runs through a regular
	// file. No tmp path must be recorded, and the error must stick.
	block := filepath.Join(dir, "blocked")
	if err := os.WriteFile(block, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w = newCPWriter(filepath.Join(block, "cp"), 2)
	if err := w.append([]byte("x"), 1); err == nil {
		t.Fatal("append under a file-blocked dir succeeded")
	}
	if w.tmp != "" {
		t.Errorf("MkdirAll failure recorded tmp path %q", w.tmp)
	}
	if err := w.append([]byte("x"), 1); err == nil {
		t.Error("writer accepted data after a sticky error")
	}

	// Contrast: a commit-hook failure is the torn-commit window — the
	// fsynced .tmp deliberately stays on disk, exactly as a crash between
	// write and rename would leave it.
	torn := t.TempDir()
	w = newCPWriter(torn, 3)
	w.commitHook = func(task, seq int) error { return ErrInjectedFailure }
	if err := w.append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := w.seal(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("seal error = %v", err)
	}
	if n := countTmp(t, torn); n != 1 {
		t.Errorf("torn commit left %d .tmp files, want exactly 1", n)
	}
	if chunks, _ := listChunks(torn); len(chunks) != 0 {
		t.Errorf("torn commit produced visible chunks: %v", chunks)
	}
}
