package launch

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datampi/internal/core"
	"datampi/internal/trace"
)

// TestMain routes spawned copies of this test binary into the worker
// loop: a child re-executed by StartCluster must never run the tests.
func TestMain(m *testing.M) {
	if IsSpawnedWorker() {
		if err := RunSpawnedWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncWriter lets concurrent relay goroutines share one buffer.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// runOracle runs the same spec entirely in one process (the goroutine
// launch mode) into its own output directory.
func runOracle(t *testing.T, spec JobSpec) *core.Result {
	t.Helper()
	spec.KillAfterChunks = 0 // failpoints are a process-launch concern
	spec.FailCPCommit = 0
	spec.PartialRestart = false
	spec.FT = false
	spec.CheckpointDir = ""
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(spec.OutDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(spec.BuildJob(-1, 0, nil), core.WithTCPTransport())
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return res
}

// readParts returns the concatenated part-%05d files of a run.
func readParts(t *testing.T, dir string, numA int) []string {
	t.Helper()
	parts := make([]string, numA)
	for i := range parts {
		b, err := os.ReadFile(PartPath(dir, i))
		if err != nil {
			t.Fatalf("missing output part: %v", err)
		}
		parts[i] = string(b)
	}
	return parts
}

func checkPartsEqual(t *testing.T, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("part-%05d differs from oracle (%d vs %d bytes)", i, len(got[i]), len(want[i]))
		}
	}
}

// checkCounterParity asserts the distributed run moved exactly the data
// the oracle did, and that its own send/recv sides balance.
func checkCounterParity(t *testing.T, got, want *core.Result) {
	t.Helper()
	for _, name := range []string{"shuffle.bytes.sent", "shuffle.bytes.received",
		"shuffle.records.sent", "shuffle.records.received"} {
		if g, w := got.RuntimeCounters[name], want.RuntimeCounters[name]; g != w {
			t.Errorf("%s = %d, want %d (oracle)", name, g, w)
		}
	}
	if s, r := got.RuntimeCounters["shuffle.bytes.sent"], got.RuntimeCounters["shuffle.bytes.received"]; s != r || s == 0 {
		t.Errorf("shuffle not balanced: sent %d bytes, received %d", s, r)
	}
	if got.RecordsSent != want.RecordsSent {
		t.Errorf("RecordsSent = %d, want %d", got.RecordsSent, want.RecordsSent)
	}
}

func TestProcWordCount(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := t.TempDir()
	spec := JobSpec{
		App: "wordcount", NumO: 8, NumA: 4, Procs: 3,
		Lines: 400, Seed: 7, SPLBytes: 4096,
		OutDir: filepath.Join(base, "proc"),
	}
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	ores := runOracle(t, ospec)

	out := &syncWriter{}
	tr := trace.New()
	res, err := Launch(&spec, Options{Output: out, Trace: tr})
	if err != nil {
		t.Fatalf("Launch: %v\nworker output:\n%s", err, out.String())
	}
	checkPartsEqual(t, readParts(t, spec.OutDir, spec.NumA), readParts(t, ospec.OutDir, spec.NumA))
	checkCounterParity(t, res, ores)

	// The merged Chrome trace must hold every worker process's spans,
	// shifted onto the launcher's clock (per-process pids).
	taskSpans := map[int]int{}
	for _, e := range tr.Events() {
		if e.Cat == "task" {
			taskSpans[e.PID]++
		}
	}
	for r := 0; r < spec.Procs; r++ {
		if taskSpans[r] == 0 {
			t.Errorf("merged trace has no task spans from worker process %d", r)
		}
	}
	if err := tr.WriteFile(filepath.Join(base, "trace.json")); err != nil {
		t.Fatalf("writing merged trace: %v", err)
	}
}

func TestProcTeraSort(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := t.TempDir()
	spec := JobSpec{
		App: "terasort", NumO: 8, NumA: 4, Procs: 3,
		Records: 12000, Seed: 11, SPLBytes: 4096,
		OutDir: filepath.Join(base, "proc"),
	}
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	ores := runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch: %v\nworker output:\n%s", err, out.String())
	}
	parts := readParts(t, spec.OutDir, spec.NumA)
	checkPartsEqual(t, parts, readParts(t, ospec.OutDir, spec.NumA))
	checkCounterParity(t, res, ores)

	// Range partitioning + per-partition sort must yield a global order:
	// every part sorted internally, parts sorted relative to each other.
	var prev string
	var total int
	for i, p := range parts {
		lines := strings.Split(strings.TrimSuffix(p, "\n"), "\n")
		total += len(lines)
		for _, l := range lines {
			key := l[:strings.IndexByte(l, '\t')]
			if key < prev {
				t.Fatalf("part-%05d: key %s out of order after %s", i, key, prev)
			}
			prev = key
		}
	}
	if total != spec.Records {
		t.Errorf("output has %d records, want %d", total, spec.Records)
	}
}

// TestProcMuxConnCount pins the progress engine's socket economics at
// the process level: the whole fleet opens at most one outgoing TCP
// connection per ordered process pair, regardless of how many
// communicators and ranks each process hosts, and the output is
// byte-identical to the in-process oracle. mpi.mux.conns folds
// additively across worker processes, so the launcher's merged result
// carries the fleet-wide total.
func TestProcMuxConnCount(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := t.TempDir()
	// ShmOff: this test pins the *TCP* socket economics; with the
	// shared-memory transport on (the fleet default), same-host pairs
	// never dial and mpi.mux.conns stays 0 — see TestProcShmTransport.
	mkSpec := func(name string) JobSpec {
		return JobSpec{
			App: "wordcount", NumO: 6, NumA: 3, Procs: 3,
			Lines: 300, Seed: 13, SPLBytes: 4096,
			OutDir: filepath.Join(base, name),
			ShmOff: true,
		}
	}
	ospec := mkSpec("oracle")
	runOracle(t, ospec)
	want := readParts(t, ospec.OutDir, ospec.NumA)

	spec := mkSpec("mux")
	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch: %v\nworker output:\n%s", err, out.String())
	}
	checkPartsEqual(t, readParts(t, spec.OutDir, spec.NumA), want)

	// Procs workers + the controller, each dialing at most one conn per
	// destination process including itself (self-sends ride TCP too):
	// (Procs+1)^2 ordered pairs. mpi.mux.conns is the fold of each
	// process's peak simultaneous outgoing conns, so staying under the
	// pair count proves no process ever held more than one conn per peer,
	// no matter how many communicators its ranks used.
	pairs := int64((ospec.Procs + 1) * (ospec.Procs + 1))
	if muxConns := res.RuntimeCounters["mpi.mux.conns"]; muxConns == 0 || muxConns > pairs {
		t.Errorf("mpi.mux.conns = %d, want 1..%d (one conn per process pair)", muxConns, pairs)
	}
}

// SIGKILL one worker process mid-shuffle: the launcher must notice the
// death, relaunch the fleet, and the job must complete from the
// surviving checkpoints with output identical to a clean run — the
// process-level analogue of the in-process rank-death chaos test.
func TestProcChaosKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := t.TempDir()
	// Route the shm segments under the test tempdir so the SIGKILL path's
	// cleanup is observable: a killed worker can't unmap or unlink
	// anything, so the launcher must unlink its attempt's directory.
	shmParent := filepath.Join(base, "shm")
	if err := os.MkdirAll(shmParent, 0o700); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		App: "wordcount", NumO: 8, NumA: 4, Procs: 3,
		Lines: 1200, Seed: 3, SPLBytes: 4096,
		OutDir: filepath.Join(base, "proc"),
		FT:     true, CheckpointDir: filepath.Join(base, "cp"), CheckpointRecords: 400,
		KillRank: 1, KillAfterChunks: 1,
	}
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	ores := runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out, ShmDir: shmParent})
	if err != nil {
		t.Fatalf("Launch after chaos: %v\nworker output:\n%s", err, out.String())
	}
	checkPartsEqual(t, readParts(t, spec.OutDir, spec.NumA), readParts(t, ospec.OutDir, spec.NumA))
	// Reloaded records are delivered from checkpoints, not re-sent, so
	// sent + reloaded must cover exactly the clean run's send volume.
	if res.RecordsSent+res.RecordsReloaded != ores.RecordsSent {
		t.Errorf("sent %d + reloaded %d = %d, want %d",
			res.RecordsSent, res.RecordsReloaded, res.RecordsSent+res.RecordsReloaded, ores.RecordsSent)
	}
	log := out.String()
	if !strings.Contains(log, "relaunching from checkpoints") {
		t.Errorf("launcher never relaunched; output:\n%s", log)
	}
	if res.RecordsReloaded == 0 {
		t.Error("recovery reloaded no checkpointed records")
	}
	// Both attempts' segment directories (the killed one's included) must
	// be gone: nothing may persist under /dev/shm after the run.
	requireNoShmLeak(t, shmParent)
}

func TestHostfileParser(t *testing.T) {
	hosts, err := ParseHostfile("# cluster\r\nlocalhost slots=4\n\n  127.0.0.1  # head node\r\n::1\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []HostEntry{{"localhost", 2}, {"127.0.0.1", 4}, {"::1", 5}}
	if len(hosts) != len(want) {
		t.Fatalf("hosts = %v, want %v", hosts, want)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v, want %v", hosts, want)
		}
	}
	n, err := CheckLocalHosts(hosts)
	if err != nil || n != 3 {
		t.Fatalf("CheckLocalHosts = %d, %v", n, err)
	}
	if hosts, err := ParseHostfile("\n# only comments\n\r\n"); err != nil || len(hosts) != 0 {
		t.Fatalf("empty hostfile = %v, %v", hosts, err)
	}
}

// Hostfile failures carry a typed error naming the offending host and its
// exact line, so mpidrun can point the user into their -f file.
func TestHostfileTypedErrors(t *testing.T) {
	_, err := ParseHostfile("localhost\n\nlocalhost maxprocs=2\n")
	var he *HostfileError
	if !errors.As(err, &he) {
		t.Fatalf("ParseHostfile error %T (%v), want *HostfileError", err, err)
	}
	if he.Host != "maxprocs=2" || he.Line != 3 {
		t.Errorf("parse error = %+v, want host \"maxprocs=2\" on line 3", he)
	}
	if !strings.Contains(he.Error(), "line 3") {
		t.Errorf("Error() = %q, want the line number rendered", he.Error())
	}

	hosts, err := ParseHostfile("# head\nlocalhost\nnode7 slots=8\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CheckLocalHosts(hosts)
	he = nil
	if !errors.As(err, &he) {
		t.Fatalf("CheckLocalHosts error %T (%v), want *HostfileError", err, err)
	}
	if he.Host != "node7" || he.Line != 3 {
		t.Errorf("check error = %+v, want host \"node7\" on line 3", he)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := &JobSpec{App: "terasort", NumO: 4, NumA: 2, Procs: 2,
		Records: 100, OutDir: "/tmp/x", KillRank: 1, KillAfterChunks: 5}
	enc, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *spec {
		t.Fatalf("round trip %+v != %+v", got, spec)
	}
	if _, err := decodeSpec(""); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := decodeSpec("{bad json"); err == nil {
		t.Fatal("garbage spec accepted")
	}
	bad := &JobSpec{App: "pagerank", NumO: 1, NumA: 1, Procs: 1, OutDir: "x"}
	if err := bad.Normalize(); err == nil {
		t.Fatal("unsupported app accepted")
	}
}
