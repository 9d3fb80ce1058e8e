package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"datampi/internal/diskio"
	"datampi/internal/kv"
)

// Spill-path differential tests: the same job run with and without
// spilling, under several SPL sizes, with chained compactions and across a
// crash/restart, must write byte-identical output, read back exactly the
// spill bytes it wrote, and leave no spill file or descriptor behind.

// spillDisks returns one fresh spill disk per process and their roots.
func spillDisks(t *testing.T, procs int) ([]*diskio.Disk, []string) {
	t.Helper()
	disks := make([]*diskio.Disk, procs)
	dirs := make([]string, procs)
	for i := range disks {
		dirs[i] = t.TempDir()
		d, err := diskio.New(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	return disks, dirs
}

// leftSpillFiles lists the regular files still under the disks' spill
// directories.
func leftSpillFiles(t *testing.T, dirs []string) []string {
	t.Helper()
	var left []string
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(dir, "dmpi-spill"), func(path string, d fs.DirEntry, err error) error {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err == nil && !d.IsDir() {
				left = append(left, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return left
}

// openSpillFDs counts this process's descriptors on spill files under dirs.
func openSpillFDs(t *testing.T, dirs []string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.Contains(link, "dmpi-spill") {
			continue
		}
		for _, dir := range dirs {
			if strings.HasPrefix(link, dir) {
				n++
			}
		}
	}
	return n
}

// sortJob is TeraSort's shape: 10-byte unique keys, 90-byte values, raw
// byte order. Each A task frames what it receives into its part.
func sortJob(perO int, parts *sync.Map) *Job {
	const numO = 4
	return &Job{
		Name: "spillsort",
		Mode: MapReduce,
		NumO: numO, NumA: 4, Procs: 2,
		OTask: func(ctx *Context) error {
			rng := rand.New(rand.NewSource(int64(ctx.Rank())))
			key, val := make([]byte, 10), make([]byte, 90)
			for i := 0; i < perO; i++ {
				rng.Read(key[:6])
				binary.BigEndian.PutUint32(key[6:], uint32(i*numO+ctx.Rank()))
				rng.Read(val)
				if err := ctx.SendRecord(kv.Record{Key: key, Value: val}); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			var part []byte
			for {
				rec, ok, err := ctx.RecvRecord()
				if err != nil || !ok {
					parts.Store(ctx.Rank(), part)
					return err
				}
				part = kv.AppendRecord(part, rec)
			}
		},
	}
}

// checkSpillBalance asserts that every spilled or compacted byte was read
// back exactly once.
func checkSpillBalance(t *testing.T, what string, rc map[string]int64) {
	t.Helper()
	w, c, r := rc["spill.bytes.written"], rc["spill.compact.bytes"], rc["spill.bytes.read"]
	if w+c != r {
		t.Errorf("%s: spill.bytes.written %d + spill.compact.bytes %d != spill.bytes.read %d", what, w, c, r)
	}
}

func TestSpillDifferential(t *testing.T) {
	const perO = 15000 // 6 MB of records: 3 MB a process, past the 2 MiB cache
	var ref sync.Map
	if _, err := Run(sortJob(perO, &ref)); err != nil {
		t.Fatal(err)
	}
	// The reference must itself be sorted and hold every record once.
	total := 0
	ref.Range(func(_, v any) bool {
		prev := []byte(nil)
		for b := v.([]byte); len(b) > 0; {
			rec, n, err := kv.ReadRecord(b)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && kv.DefaultCompare(prev, rec.Key) >= 0 {
				t.Fatalf("reference part out of order at %x", rec.Key)
			}
			prev, b = rec.Key, b[n:]
			total++
		}
		return true
	})
	if total != 4*perO {
		t.Fatalf("reference holds %d records, want %d", total, 4*perO)
	}
	same := func(what string, got *sync.Map) {
		t.Helper()
		for a := 0; a < 4; a++ {
			w, _ := ref.Load(a)
			g, _ := got.Load(a)
			if !slices.Equal(g.([]byte), w.([]byte)) {
				t.Errorf("%s: part %d differs from the in-memory run", what, a)
			}
		}
	}

	type cell struct {
		cache, spl int64
		fanIn      int
	}
	cells := []cell{
		{0, 4 << 10, 0}, {0, 64 << 10, 0},
		{64 << 10, 4 << 10, 0}, {64 << 10, 64 << 10, 0},
		{2 << 20, 4 << 10, 0}, {2 << 20, 64 << 10, 0},
		{16 << 10, 4 << 10, 2}, // chained compactions
	}
	for _, c := range cells {
		what := fmt.Sprintf("cache=%d spl=%d fanIn=%d", c.cache, c.spl, c.fanIn)
		disks, dirs := spillDisks(t, 2)
		var parts sync.Map
		job := sortJob(perO, &parts)
		job.Conf.MemCacheBytes = c.cache
		job.Conf.SPLBytes = int(c.spl)
		job.hooks.spillCompactFanIn = c.fanIn
		job.SpillDisks = disks
		res, err := Run(job)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		same(what, &parts)
		rc := res.RuntimeCounters
		checkSpillBalance(t, what, rc)
		if c.cache > 0 && rc["spill.files"] == 0 {
			t.Errorf("%s: nothing spilled", what)
		}
		// More compactions than partitions means some partition compacted
		// twice, and a second compaction always takes the first's output.
		if c.fanIn > 1 && rc["spill.compactions"] <= int64(job.NumA) {
			t.Errorf("%s: %d compactions, want a chain (> %d)", what, rc["spill.compactions"], job.NumA)
		}
		if left := leftSpillFiles(t, dirs); len(left) > 0 {
			t.Errorf("%s: spill files left behind: %v", what, left)
		}
	}

	// Crash mid-shuffle with checkpointing on, then restart from the
	// checkpoints with spilling on.
	disks, dirs := spillDisks(t, 2)
	cp := t.TempDir()
	var crashed, parts sync.Map
	job := sortJob(perO, &crashed)
	job.Conf.FaultTolerance, job.Conf.CheckpointDir = true, cp
	job.Conf.MemCacheBytes, job.Conf.SPLBytes = 64<<10, 4<<10
	job.Conf.InjectFailAfterCPRecords = 2 * perO
	job.SpillDisks = disks
	if _, err := Run(job); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("crash run: want ErrInjectedFailure, got %v", err)
	}
	job = sortJob(perO, &parts)
	job.Conf.FaultTolerance, job.Conf.CheckpointDir = true, cp
	job.Conf.MemCacheBytes, job.Conf.SPLBytes = 64<<10, 4<<10
	job.SpillDisks = disks
	res, err := Run(job)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if res.RecordsReloaded == 0 {
		t.Error("restart reloaded no records")
	}
	same("restart", &parts)
	checkSpillBalance(t, "restart", res.RuntimeCounters)
	if left := leftSpillFiles(t, dirs); len(left) > 0 {
		t.Errorf("restart: spill files left behind: %v", left)
	}
}

// TestSpillGroupsDuplicateKeys runs a duplicate-heavy NextGroup job at a
// 4 KiB cache: every key's values, gathered across spilled runs and held
// across Next calls, must be the multiset the O tasks sent. The order of
// values within a key follows arrival, so only the multiset is compared.
func TestSpillGroupsDuplicateKeys(t *testing.T) {
	const numO, perO, keys = 4, 3000, 40
	want := make(map[string][]string)
	for o := 0; o < numO; o++ {
		for i := 0; i < perO; i++ {
			k := fmt.Sprintf("key-%02d", (i*7+o)%keys)
			want[k] = append(want[k], fmt.Sprintf("o%d-%05d", o, i))
		}
	}
	disks, dirs := spillDisks(t, 2)
	var mu sync.Mutex
	got := make(map[string][]string)
	job := &Job{
		Name: "spillgroups",
		Mode: MapReduce,
		Conf: Config{MemCacheBytes: 4 << 10, SPLBytes: 1 << 10},
		NumO: numO, NumA: 3, Procs: 2,
		OTask: func(ctx *Context) error {
			for i := 0; i < perO; i++ {
				k := fmt.Sprintf("key-%02d", (i*7+ctx.Rank())%keys)
				if err := ctx.Send(k, fmt.Sprintf("o%d-%05d", ctx.Rank(), i)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			var groups []kv.Group
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				groups = append(groups, g)
			}
			// Read the groups only after the partition is drained: their
			// bytes must have outlived every later window refill.
			mu.Lock()
			defer mu.Unlock()
			for _, g := range groups {
				k := string(g.Key)
				if _, dup := got[k]; dup {
					return fmt.Errorf("key %s grouped twice", k)
				}
				for _, v := range g.Values {
					got[k] = append(got[k], string(v))
				}
			}
			return nil
		},
	}
	job.Conf.KeyCodec, job.Conf.ValueCodec = kv.String, kv.String
	job.SpillDisks = disks
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeCounters["spill.files"] == 0 {
		t.Fatal("expected spilling with a 4 KiB cache")
	}
	checkSpillBalance(t, "groups", res.RuntimeCounters)
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		g := slices.Clone(got[k])
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Errorf("key %s: %d values, want %d (or the values differ)", k, len(g), len(w))
		}
	}
	if left := leftSpillFiles(t, dirs); len(left) > 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}

// TestSpillEarlyReturnClosesFiles: an A task that returns before draining
// its partition must not leave its spill files open once Run returns.
func TestSpillEarlyReturnClosesFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	disks, dirs := spillDisks(t, 2)
	docs := make([][]string, 4)
	for i := range docs {
		for j := 0; j < 2000; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("word-%04d", (i*1000+j)%500))
		}
	}
	var out collector
	job := wordCountJob(docs, 4, 2, &out)
	job.Conf.MemCacheBytes = 4 << 10
	job.Conf.SPLBytes = 1 << 10
	job.SpillDisks = disks
	job.ATask = func(ctx *Context) error {
		_, _, err := ctx.RecvRecord()
		return err
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledBytes == 0 {
		t.Fatal("expected spilling with a 4 KiB cache")
	}
	if n := openSpillFDs(t, dirs); n > 0 {
		t.Errorf("%d spill files still open after Run returned", n)
	}
	if left := leftSpillFiles(t, dirs); len(left) > 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}
