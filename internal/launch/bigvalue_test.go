package launch

import (
	"path/filepath"
	"strings"
	"testing"
)

// bigvalueSpec is the shared geometry of the large-value e2e runs: every
// value (128 KiB) is eight times the chunk threshold (16 KiB), so each
// one crosses the wire as chunks.
func bigvalueSpec(base string) JobSpec {
	return JobSpec{
		App: "bigvalue", NumO: 4, NumA: 2, Procs: 3,
		Records: 24, ValueBytes: 128 << 10, Seed: 11,
		ChunkBytes:  16 << 10,
		OutDir:      filepath.Join(base, "proc"),
		IOTimeoutMs: 500,
	}
}

// privateTmp points TMPDIR, which spawned workers inherit, at a fresh
// directory for the rest of the test, and returns a check that nothing
// the blob stores made is left in it.
func privateTmp(t *testing.T) func() {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return func() {
		t.Helper()
		if left, _ := filepath.Glob(filepath.Join(tmp, "dmpi-blob-*")); len(left) > 0 {
			t.Errorf("blob directories left behind: %v", left)
		}
	}
}

// TestProcBigValueE2E streams values larger than the chunk threshold
// across real worker OS processes and requires the part files
// byte-identical to the in-process sequential oracle.
func TestProcBigValueE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	noBlobsLeft := privateTmp(t)
	base := t.TempDir()
	spec := bigvalueSpec(base)
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch: %v\nworker output:\n%s", err, out.String())
	}
	checkPartsEqual(t, readParts(t, spec.OutDir, spec.NumA), readParts(t, ospec.OutDir, spec.NumA))
	// Both chunking layers must have fired: the blob store streamed each
	// value in ChunkBytes pieces, and the transport split and reassembled
	// the messages above the threshold.
	for _, k := range []string{"blob.chunks.sent", "blob.chunks.received", "mpi.chunk.msgs.sent", "mpi.chunk.msgs.reassembled"} {
		if res.RuntimeCounters[k] == 0 {
			t.Errorf("%s = 0: the workload did not exercise chunking", k)
		}
	}
	noBlobsLeft()
}

// TestProcBigValueMidChunkKill is the crash-matrix case for the
// large-value data plane: SIGKILL a worker while it is mid-stream —
// chunk frames committed, in flight, and unsent all at once — and
// recover it with a partial restart. A partial value surfacing anywhere
// (merge, spill, checkpoint replay) changes its A-side hash line, so
// byte-identical part files prove values arrive complete exactly once.
func TestProcBigValueMidChunkKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	noBlobsLeft := privateTmp(t)
	base := t.TempDir()
	spec := bigvalueSpec(base)
	spec.FT = true
	spec.CheckpointDir = filepath.Join(base, "cp")
	spec.CheckpointRecords = 2
	spec.PartialRestart = true
	spec.KillRank = 1
	spec.KillAfterChunks = 2
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch after mid-chunk kill: %v\nworker output:\n%s", err, out.String())
	}
	checkPartsEqual(t, readParts(t, spec.OutDir, spec.NumA), readParts(t, ospec.OutDir, spec.NumA))

	log := out.String()
	if !strings.Contains(log, "respawned worker 1") {
		t.Errorf("launcher never respawned worker 1; output:\n%s", log)
	}
	if res.RuntimeCounters["blob.values.received"] == 0 {
		t.Error("no blob values crossed the data plane — the workload did not exercise chunking")
	}
	noBlobsLeft()
}
