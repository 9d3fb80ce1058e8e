package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"datampi/internal/diskio"
	"datampi/internal/kv"
)

// collector gathers A-task outputs across goroutines.
type collector struct {
	mu   sync.Mutex
	recs []kv.Record
}

func (c *collector) add(r kv.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, kv.Record{
		Key:   append([]byte(nil), r.Key...),
		Value: append([]byte(nil), r.Value...),
	})
	c.mu.Unlock()
}

func (c *collector) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.recs))
	for i, r := range c.recs {
		out[i] = string(r.Key)
	}
	sort.Strings(out)
	return out
}

// wordCountJob builds a MapReduce word count over the given documents.
func wordCountJob(docs [][]string, numA, procs int, out *collector) *Job {
	return &Job{
		Name: "wordcount",
		Mode: MapReduce,
		Conf: Config{ValueCodec: kv.Int64},
		NumO: len(docs), NumA: numA, Procs: procs,
		OTask: func(ctx *Context) error {
			for _, w := range docs[ctx.Rank()] {
				if err := ctx.Send(w, int64(1)); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				var sum int64
				for _, v := range g.Values {
					n, err := kv.Int64.Decode(v)
					if err != nil {
						return err
					}
					sum += n.(int64)
				}
				vb, _ := kv.Int64.Encode(nil, sum)
				out.add(kv.Record{Key: g.Key, Value: vb})
			}
		},
	}
}

func wantCounts(docs [][]string) map[string]int64 {
	m := map[string]int64{}
	for _, d := range docs {
		for _, w := range d {
			m[w]++
		}
	}
	return m
}

func checkCounts(t *testing.T, out *collector, want map[string]int64) {
	t.Helper()
	out.mu.Lock()
	defer out.mu.Unlock()
	got := map[string]int64{}
	for _, r := range out.recs {
		n, err := kv.Int64.Decode(r.Value)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[string(r.Key)]; dup {
			t.Errorf("key %q counted by two A tasks", r.Key)
		}
		got[string(r.Key)] = n.(int64)
	}
	if len(got) != len(want) {
		t.Errorf("got %d distinct keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("count[%q] = %d, want %d", k, got[k], w)
		}
	}
}

var testDocs = [][]string{
	{"the", "quick", "brown", "fox", "the", "dog"},
	{"the", "lazy", "dog", "sleeps"},
	{"quick", "quick", "fox", "jumps", "over", "the", "moon"},
	{"moon", "over", "the", "fox"},
}

func TestMapReduceWordCount(t *testing.T) {
	var out collector
	job := wordCountJob(testDocs, 3, 2, &out)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(testDocs))
	if res.RecordsSent == 0 || res.BytesShuffled == 0 {
		t.Errorf("counters: %+v", res)
	}
	if res.LocalATasks != 3 || res.RemoteATasks != 0 {
		t.Errorf("data-centric placement: local=%d remote=%d", res.LocalATasks, res.RemoteATasks)
	}
}

func TestMapReduceOverTCP(t *testing.T) {
	var out collector
	job := wordCountJob(testDocs, 2, 2, &out)
	if _, err := Run(job, WithTCPTransport()); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(testDocs))
}

// Partition Window cases of Fig. 6: NumO > NumA, NumO == NumA, NumO < NumA,
// with fewer processes than tasks so multiple waves are scheduled.
func TestPartitionWindowShapes(t *testing.T) {
	for _, tc := range []struct{ numO, numA, procs, slots int }{
		{6, 2, 2, 1},
		{3, 3, 3, 1},
		{2, 7, 3, 2},
		{5, 4, 2, 3},
	} {
		t.Run(fmt.Sprintf("O%d_A%d_P%d", tc.numO, tc.numA, tc.procs), func(t *testing.T) {
			docs := make([][]string, tc.numO)
			for i := range docs {
				for j := 0; j < 20; j++ {
					docs[i] = append(docs[i], fmt.Sprintf("w%02d", (i*7+j)%13))
				}
			}
			var out collector
			job := wordCountJob(docs, tc.numA, tc.procs, &out)
			job.Slots = tc.slots
			if _, err := Run(job); err != nil {
				t.Fatal(err)
			}
			checkCounts(t, &out, wantCounts(docs))
		})
	}
}

func TestSortedDeliveryWithinATask(t *testing.T) {
	// Each A task must see its records in key order (MapReduce mode sorts).
	var mu sync.Mutex
	perTask := map[int][]string{}
	job := &Job{
		Mode: MapReduce,
		NumO: 4, NumA: 3, Procs: 2,
		OTask: func(ctx *Context) error {
			for i := 0; i < 50; i++ {
				if err := ctx.Send(fmt.Sprintf("k%03d", (i*31+ctx.Rank()*17)%100), ""); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			var keys []string
			for {
				k, _, ok, err := ctx.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				keys = append(keys, k.(string))
			}
			mu.Lock()
			perTask[ctx.Rank()] = keys
			mu.Unlock()
			return nil
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	total := 0
	for task, keys := range perTask {
		if !sort.StringsAreSorted(keys) {
			t.Errorf("A task %d received unsorted keys", task)
		}
		for _, k := range keys {
			if kv.DefaultPartition([]byte(k), nil, 3) != task {
				t.Errorf("key %q delivered to wrong task %d", k, task)
			}
		}
		total += len(keys)
	}
	if total != 200 {
		t.Errorf("delivered %d records, want 200", total)
	}
}

func TestCommonModeSort(t *testing.T) {
	// The paper's Listing 1: parallel sort in the Common mode with a range
	// partitioner; the concatenation of A outputs by rank is fully sorted.
	keysIn := []string{"pear", "apple", "zebra", "kiwi", "fig", "mango", "date", "cherry"}
	rangePart := func(key, _ []byte, numA int) int {
		c := key[0]
		switch {
		case c < 'h':
			return 0
		case c < 'p':
			return 1 % numA
		default:
			return 2 % numA
		}
	}
	var mu sync.Mutex
	byTask := map[int][]string{}
	job := &Job{
		Mode: Common,
		Conf: Config{Partition: rangePart, ValueCodec: kv.Null},
		NumO: 2, NumA: 3, Procs: 3,
		OTask: func(ctx *Context) error {
			for i := ctx.Rank(); i < len(keysIn); i += ctx.CommSize(CommO) {
				if err := ctx.Send(keysIn[i], struct{}{}); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			var ks []string
			for {
				k, _, ok, err := ctx.Recv()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				ks = append(ks, k.(string))
			}
			mu.Lock()
			byTask[ctx.Rank()] = ks
			mu.Unlock()
			return nil
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	var all []string
	for task := 0; task < 3; task++ {
		all = append(all, byTask[task]...)
	}
	if len(all) != len(keysIn) {
		t.Fatalf("got %d keys, want %d", len(all), len(keysIn))
	}
	if !sort.StringsAreSorted(all) {
		t.Errorf("global order not sorted: %v", all)
	}
}

func TestCombineReducesBytes(t *testing.T) {
	// 1000 copies of the same word: the combiner should collapse them.
	doc := make([]string, 1000)
	for i := range doc {
		doc[i] = "same"
	}
	sum := func(key []byte, vals [][]byte) [][]byte {
		var s int64
		for _, v := range vals {
			n, _ := kv.Int64.Decode(v)
			s += n.(int64)
		}
		vb, _ := kv.Int64.Encode(nil, s)
		return [][]byte{vb}
	}
	run := func(combine kv.Combine) (*Result, *collector) {
		var out collector
		job := wordCountJob([][]string{doc}, 1, 1, &out)
		job.Conf.Combine = combine
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res, &out
	}
	plain, outPlain := run(nil)
	combined, outComb := run(sum)
	checkCounts(t, outPlain, map[string]int64{"same": 1000})
	checkCounts(t, outComb, map[string]int64{"same": 1000})
	if combined.BytesShuffled >= plain.BytesShuffled {
		t.Errorf("combine did not shrink shuffle: %d >= %d",
			combined.BytesShuffled, plain.BytesShuffled)
	}
}

func TestSpillOver(t *testing.T) {
	const procs = 2
	disks := make([]*diskio.Disk, procs)
	for i := range disks {
		d, err := diskio.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	docs := make([][]string, 4)
	for i := range docs {
		for j := 0; j < 2000; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("word-%04d", (i*1000+j)%500))
		}
	}
	var out collector
	job := wordCountJob(docs, 4, procs, &out)
	job.Conf.MemCacheBytes = 4 << 10 // force heavy spilling
	job.Conf.SPLBytes = 1 << 10
	job.SpillDisks = disks
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledBytes == 0 {
		t.Error("expected spilling with a 4KB cache")
	}
	checkCounts(t, &out, wantCounts(docs))
}

func TestDataCentricOffAblation(t *testing.T) {
	var out collector
	job := wordCountJob(testDocs, 4, 2, &out)
	job.Conf.DataCentricOff = true
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(testDocs))
	if res.RemoteATasks == 0 {
		t.Error("ablation should place some A tasks off their partition owner")
	}
}

func TestOSidePipelineOffAblation(t *testing.T) {
	var out collector
	job := wordCountJob(testDocs, 3, 2, &out)
	job.Conf.OSidePipelineOff = true
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, &out, wantCounts(testDocs))
}

func TestTaskErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	job := &Job{
		Mode: MapReduce,
		NumO: 2, NumA: 1, Procs: 2,
		OTask: func(ctx *Context) error {
			if ctx.Rank() == 1 {
				return boom
			}
			return ctx.Send("k", "v")
		},
		ATask: func(ctx *Context) error { return nil },
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("got %v, want boom", err)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	job := &Job{
		Mode: MapReduce,
		NumO: 1, NumA: 1, Procs: 1,
		OTask: func(ctx *Context) error { panic("kaboom") },
		ATask: func(ctx *Context) error { return nil },
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("got %v", err)
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := Run(&Job{NumO: 0, NumA: 1}); err == nil {
		t.Error("NumO=0 accepted")
	}
	if _, err := Run(&Job{NumO: 1, NumA: 1}); err == nil {
		t.Error("nil tasks accepted")
	}
	noop := func(ctx *Context) error { return nil }
	if _, err := Run(&Job{NumO: 1, NumA: 1, OTask: noop, ATask: noop, Rounds: 3}); err == nil {
		t.Error("Rounds>1 outside Iteration accepted")
	}
	if _, err := Run(&Job{
		Mode: MapReduce, NumO: 1, NumA: 1, OTask: noop, ATask: noop,
		Conf: Config{FaultTolerance: true},
	}); err == nil {
		t.Error("FT without CheckpointDir accepted")
	}
}

func TestASendOutsideIterationRejected(t *testing.T) {
	job := &Job{
		Mode: MapReduce,
		NumO: 1, NumA: 1, Procs: 1,
		OTask: func(ctx *Context) error { return ctx.Send("k", "v") },
		ATask: func(ctx *Context) error { return ctx.Send("nope", "x") },
	}
	if _, err := Run(job); err == nil {
		t.Error("A-task Send outside Iteration accepted")
	}
}

func TestResultPhaseTimesAndTaskCounters(t *testing.T) {
	var out collector
	job := wordCountJob(testDocs, 3, 2, &out)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OPhaseTimes) != 1 || len(res.APhaseTimes) != 1 {
		t.Fatalf("phase times: O=%v A=%v", res.OPhaseTimes, res.APhaseTimes)
	}
	if res.OPhaseTimes[0] <= 0 || res.APhaseTimes[0] < 0 {
		t.Errorf("phase durations: %v %v", res.OPhaseTimes, res.APhaseTimes)
	}
	var sent, recv int64
	for i, n := range res.OTaskSent {
		if n != int64(len(testDocs[i])) {
			t.Errorf("OTaskSent[%d] = %d, want %d", i, n, len(testDocs[i]))
		}
		sent += n
	}
	for _, n := range res.ATaskReceived {
		recv += n
	}
	if sent != res.RecordsSent || recv != sent {
		t.Errorf("sent=%d recv=%d RecordsSent=%d", sent, recv, res.RecordsSent)
	}
}
