package launch

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readWindows returns every published window file under a streamagg
// OutDir, name -> content. Unpublished temp files (a killed worker's torn
// writes) are ignored: the atomic rename is the publish point.
func readWindows(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wins := map[string]string{}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "win-") || strings.Contains(e.Name(), ".tmp.") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		wins[e.Name()] = string(b)
	}
	return wins
}

func checkWindowsEqual(t *testing.T, got, want map[string]string) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("window %s missing", name)
		} else if g != w {
			t.Errorf("window %s differs from oracle:%s", name, windowDiff(g, w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("window %s not in oracle (duplicate or spurious firing)", name)
		}
	}
}

// windowDiff lists, one line per key, where a published window's
// "key<TAB>count<TAB>sum" lines differ from the oracle's.
func windowDiff(got, want string) string {
	parse := func(content string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSuffix(content, "\n"), "\n") {
			key, agg, _ := strings.Cut(line, "\t")
			m[key] = agg
		}
		return m
	}
	g, w := parse(got), parse(want)
	keys := map[string]bool{}
	for k := range g {
		keys[k] = true
	}
	for k := range w {
		keys[k] = true
	}
	var lines []string
	for k := range keys {
		if g[k] != w[k] {
			lines = append(lines, fmt.Sprintf("\n\tkey %q: count, sum %q, oracle %q", k, g[k], w[k]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// logStreamCounters prints every stream.* counter of a run; the ones a
// run did not report print as 0.
func logStreamCounters(t *testing.T, rc map[string]int64) {
	t.Helper()
	names := []string{"stream.late.dropped"}
	for k := range rc {
		if strings.HasPrefix(k, "stream.") && k != "stream.late.dropped" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		t.Logf("%s = %d", k, rc[k])
	}
}

// Clean proc-mode run of the resident streaming service: every window the
// in-process oracle fires must be published exactly once, byte-identical,
// by the worker fleet.
func TestProcStreamAgg(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := t.TempDir()
	spec := JobSpec{
		App: "streamagg", NumO: 6, NumA: 4, Procs: 3, Slots: 2,
		Records: 12000, WindowMs: 50, Seed: 21, SPLBytes: 4096,
		OutDir: filepath.Join(base, "proc"),
	}
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch: %v\nworker output:\n%s", err, out.String())
	}
	want := readWindows(t, ospec.OutDir)
	if len(want) == 0 {
		t.Fatal("oracle fired no windows")
	}
	checkWindowsEqual(t, readWindows(t, spec.OutDir), want)
	if n := res.RuntimeCounters["stream.windows.fired"]; n < int64(len(want)) {
		t.Errorf("stream.windows.fired = %d, want >= %d", n, len(want))
	}
	if in, outN := res.RuntimeCounters["stream.events.in"], res.RuntimeCounters["stream.events.out"]; in != outN || in == 0 {
		t.Errorf("stream events in=%d out=%d, want equal and nonzero", in, outN)
	}
	if res.RuntimeCounters["stream.credits.granted"] == 0 {
		t.Error("credit flow control never granted (counter missing)")
	}
}

// The streaming soak: SIGKILL one worker mid-stream and require the
// launcher to recover it with a partial restart — survivors keep their
// window state and OS processes, the replacement replays checkpointed
// events deterministically, and the emit fence makes every re-fired
// window land exactly once. The published window set must be
// byte-identical to a clean run's, proving the service kept emitting
// through the fault without dropping or duplicating a single window.
func TestProcStreamSoakPartialRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and runs a long stream")
	}
	base := t.TempDir()
	spec := JobSpec{
		App: "streamagg", NumO: 6, NumA: 4, Procs: 3, Slots: 2,
		Records: 30000, WindowMs: 50, Seed: 23, SPLBytes: 2048,
		OutDir: filepath.Join(base, "proc"),
		FT:     true, CheckpointDir: filepath.Join(base, "cp"), CheckpointRecords: 400,
		PartialRestart: true,
		KillRank:       1, KillAfterChunks: 3,
		IOTimeoutMs: 500,
	}
	ospec := spec
	ospec.OutDir = filepath.Join(base, "oracle")
	runOracle(t, ospec)

	out := &syncWriter{}
	res, err := Launch(&spec, Options{Output: out})
	if err != nil {
		t.Fatalf("Launch after mid-stream kill: %v\nworker output:\n%s", err, out.String())
	}
	defer func() {
		if t.Failed() {
			logStreamCounters(t, res.RuntimeCounters)
		}
	}()
	want := readWindows(t, ospec.OutDir)
	if len(want) == 0 {
		t.Fatal("oracle fired no windows")
	}
	checkWindowsEqual(t, readWindows(t, spec.OutDir), want)

	log := out.String()
	if strings.Contains(log, "relaunching from checkpoints") {
		t.Errorf("whole-attempt relaunch happened; partial restart did not engage:\n%s", log)
	}
	if !strings.Contains(log, "respawned worker 1") {
		t.Errorf("launcher never respawned worker 1; output:\n%s", log)
	}
	if n := res.RuntimeCounters["restart.partial.restarts"]; n != 1 {
		t.Errorf("restart.partial.restarts = %d, want 1", n)
	}
	if res.RuntimeCounters["restart.partial.replayed.records"] == 0 {
		t.Error("partial restart replayed no checkpointed records")
	}
	// The replacement re-fires its windows from the replay; with the emit
	// fence in place those firings are absorbed, so the fleet-wide firing
	// count meets or exceeds the published set, never undershoots it.
	if n := res.RuntimeCounters["stream.windows.fired"]; n < int64(len(want)) {
		t.Errorf("stream.windows.fired = %d, want >= %d", n, len(want))
	}
	// The sources' watermarks never run ahead of their events, so a replay
	// that delivers every event before the watermarks behind it drops none.
	if n := res.RuntimeCounters["stream.late.dropped"]; n != 0 {
		t.Errorf("stream.late.dropped = %d, want 0", n)
	}
}
