package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRegressSnapshotRoundTrip(t *testing.T) {
	rep := &RegressReport{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		Quick: true, Date: "2026-08-05T00:00:00Z",
		Entries: []RegressEntry{{
			Name: "shuffle/mem", Iterations: 10, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 3,
			Counters: map[string]int64{"shuffle.bytes.sent": 288000, "shuffle.records.sent": 16000},
		}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteRegress(rep, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRegress(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Name != "shuffle/mem" ||
		got.Entries[0].Counters["shuffle.bytes.sent"] != 288000 {
		t.Fatalf("round trip mangled the snapshot: %+v", got)
	}
}

func TestCompareRegressFlagsCounterDrift(t *testing.T) {
	base := &RegressReport{Entries: []RegressEntry{{
		Name: "wordcount", NsPerOp: 1000, BytesPerOp: 100,
		Counters: map[string]int64{"shuffle.bytes.sent": 500},
	}}}
	cur := &RegressReport{Entries: []RegressEntry{
		{
			Name: "wordcount", NsPerOp: 1100, BytesPerOp: 100,
			Counters: map[string]int64{"shuffle.bytes.sent": 750},
		},
		{Name: "brand-new", NsPerOp: 1},
	}}
	lines := CompareRegress(base, cur)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "+10.0%") {
		t.Errorf("timing delta missing: %s", joined)
	}
	if !strings.Contains(joined, "shuffle.bytes.sent") ||
		!strings.Contains(joined, "750") {
		t.Errorf("counter drift not flagged: %s", joined)
	}
	if !strings.Contains(joined, "no baseline") {
		t.Errorf("new benchmark not reported: %s", joined)
	}
}

// TestStampCheckpointOverhead pins the cp.overhead.bp stamp to its two
// named entries: it lands on checkpoint/async only, in basis points over
// checkpoint/off, wherever the entries sit in the report.
func TestStampCheckpointOverhead(t *testing.T) {
	entries := []RegressEntry{
		{Name: "checkpoint/off", NsPerOp: 2000},
		{Name: "shuffle-aheavy/mem", NsPerOp: 9000},
		{Name: "checkpoint/async", NsPerOp: 2300, Counters: map[string]int64{"checkpoint.chunks": 8}},
		{Name: "checkpoint/recovery", NsPerOp: 5000},
	}
	stampCheckpointOverhead(entries)
	if got := entries[2].Counters["cp.overhead.bp"]; got != 1500 {
		t.Errorf("checkpoint/async cp.overhead.bp = %d, want 1500 (15%% over checkpoint/off)", got)
	}
	if entries[2].Counters["checkpoint.chunks"] != 8 {
		t.Error("stamping dropped the entry's existing counters")
	}
	for _, i := range []int{0, 1, 3} {
		if _, ok := entries[i].Counters["cp.overhead.bp"]; ok {
			t.Errorf("%s was stamped; only checkpoint/async may carry cp.overhead.bp", entries[i].Name)
		}
	}
}
