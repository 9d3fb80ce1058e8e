// Package hadoop is a faithful scale-model of Hadoop 1.x MapReduce, the
// baseline system of the paper's evaluation (Hadoop 1.2.1). It reproduces
// the mechanisms the paper contrasts DataMPI against (§IV-B, Fig. 5):
//
//   - a JobTracker scheduling map tasks with data-locality and launching
//     reducers only after a slow-start fraction of maps complete;
//   - map tasks that sort/spill/merge their output to *local disk* (the
//     two-phase, proxy-based data movement);
//   - TaskTracker-embedded HTTP ("Jetty") servers from which reducers pull
//     map output segments over real HTTP — no reduce-side data locality;
//   - reduce-side fetch + multi-pass merge before the reduce function runs.
//
// All disk traffic goes through diskio and all shuffle traffic through a
// real net/http round trip (optionally charged to a netsim.Link), so the
// Fig. 9/11 profiles are measured, not modelled.
package hadoop

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
	"datampi/internal/metrics"
	"datampi/internal/netsim"
)

// MapFunc consumes one input record and emits intermediate pairs.
type MapFunc func(key, value []byte, emit func(k, v []byte) error) error

// ReduceFunc consumes one key group and emits output pairs.
type ReduceFunc func(key []byte, values [][]byte, emit func(k, v []byte) error) error

// RecordReader streams a split's records as key-value pairs to fn. The
// host is the reading node (for HDFS locality accounting). The key and
// value may be slices of the reader's window, valid only until fn
// returns: the map task copies what it emits (mapOutputBuffer.emit).
type RecordReader func(fs *hdfs.FileSystem, split hdfs.Split, host int, fn func(k, v []byte) error) error

// LineReader is the TextInputFormat analogue: key = nil, value = line.
func LineReader(fs *hdfs.FileSystem, split hdfs.Split, host int, fn func(k, v []byte) error) error {
	return fs.ReadLinesInSplit(split, host, func(line []byte) error {
		return fn(nil, line)
	})
}

// Job describes one MapReduce job.
type Job struct {
	Name string

	FS         *hdfs.FileSystem
	InputPaths []string
	Reader     RecordReader
	OutputPath string

	Map     MapFunc
	Reduce  ReduceFunc
	Combine kv.Combine

	Partition kv.Partition
	Compare   kv.Compare

	NumReduces int

	// Tunables (Hadoop 1.x defaults scaled for tests).
	SortBufferBytes int     // io.sort.mb analogue; default 1 MiB
	MergeThreshold  int64   // reduce-side in-memory shuffle budget; default 4 MiB
	SlowStart       float64 // mapred.reduce.slowstart.completed.maps; default 0.05
	MapSlots        int     // concurrent maps per node; default 2
	ReduceSlots     int     // concurrent reduces per node; default 2

	// MaxAttempts is Hadoop's mapred.map/reduce.max.attempts: a failing
	// task is retried this many times before the job fails. Default 1
	// (no retries).
	MaxAttempts int

	// Speculative enables speculative execution for maps
	// (mapred.map.tasks.speculative.execution): once the map queue is
	// empty, idle slots launch backup attempts of still-running maps and
	// the first attempt to finish wins; the loser's output is discarded.
	Speculative bool

	// Link, if set, is charged for every shuffle HTTP transfer.
	Link *netsim.Link

	// Instrumentation (optional).
	Busy     *metrics.BusyTracker
	Mem      *metrics.Gauge
	Progress *metrics.PhaseProgress
}

func (j *Job) normalize() error {
	if j.FS == nil {
		return errors.New("hadoop: job needs an HDFS instance")
	}
	if j.Map == nil || j.Reduce == nil {
		return errors.New("hadoop: job needs Map and Reduce functions")
	}
	if j.Reader == nil {
		j.Reader = LineReader
	}
	if j.NumReduces <= 0 {
		j.NumReduces = 1
	}
	if j.Partition == nil {
		j.Partition = kv.DefaultPartition
	}
	if j.Compare == nil {
		j.Compare = kv.DefaultCompare
	}
	if j.SortBufferBytes <= 0 {
		j.SortBufferBytes = 1 << 20
	}
	if j.MergeThreshold <= 0 {
		j.MergeThreshold = 4 << 20
	}
	if j.SlowStart <= 0 {
		j.SlowStart = 0.05
	}
	if j.MapSlots <= 0 {
		j.MapSlots = 2
	}
	if j.ReduceSlots <= 0 {
		j.ReduceSlots = 2
	}
	if j.MaxAttempts <= 0 {
		j.MaxAttempts = 1
	}
	if j.OutputPath == "" {
		j.OutputPath = "/out/" + j.Name
	}
	return nil
}

// Result reports a completed job's statistics.
type Result struct {
	Elapsed time.Duration

	MapsRun    int
	ReducesRun int

	LocalMaps, RemoteMaps int

	// TaskRetries counts task attempts beyond the first (task-level fault
	// tolerance, Hadoop's speculative-free retry path).
	TaskRetries int
	// SpeculativeLaunched counts backup attempts started; SpeculativeWon
	// counts backups that beat the original attempt.
	SpeculativeLaunched int
	SpeculativeWon      int

	MapOutputRecords int64
	ShuffledBytes    int64 // bytes moved over the HTTP shuffle
	SpilledBytes     int64 // map-side spill + merge traffic
}

// Cluster is a set of TaskTracker nodes over shared HDFS.
type Cluster struct {
	fs    *hdfs.FileSystem
	nodes []*taskTracker
}

// NewCluster starts one TaskTracker per disk; node i's local disk is
// disks[i] and its datanode index is i.
func NewCluster(fs *hdfs.FileSystem, disks []*diskio.Disk) (*Cluster, error) {
	if len(disks) == 0 {
		return nil, errors.New("hadoop: need at least one node")
	}
	c := &Cluster{fs: fs}
	for i, d := range disks {
		tt, err := newTaskTracker(i, d)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, tt)
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Close shuts down the TaskTrackers' shuffle servers.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.close()
		}
	}
}

var jobIDs atomic.Int64

// Run executes a job on the cluster and blocks until completion.
func (c *Cluster) Run(job *Job) (*Result, error) {
	if err := job.normalize(); err != nil {
		return nil, err
	}
	splits, err := job.FS.Splits(job.InputPaths...)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, errors.New("hadoop: no input splits")
	}
	jr := &jobRun{
		cluster: c,
		job:     job,
		id:      jobIDs.Add(1),
		splits:  splits,
	}
	return jr.run()
}

// jobRun is the JobTracker state for one job.
type jobRun struct {
	cluster *Cluster
	job     *Job
	id      int64
	splits  []hdfs.Split

	mu            sync.Mutex
	cond          *sync.Cond
	mapQueue      []int // pending map task ids (indexes into splits)
	completedMaps []mapCompletion
	mapsDone      int
	doneMaps      map[int]bool
	runningMaps   map[int]int  // mapID -> attempts in flight
	backedUp      map[int]bool // maps that already have a backup attempt
	attemptSeq    map[int]int  // mapID -> next attempt id
	failure       error

	res Result

	shuffled atomic.Int64
	spilled  atomic.Int64
	maprecs  atomic.Int64
}

// mapCompletion is a map-completion event, as reducers poll them from the
// TaskTracker in Hadoop.
type mapCompletion struct {
	mapID   int
	node    int // tracker that holds the output
	attempt int // winning attempt (for the shuffle URL)
}

func (jr *jobRun) fail(err error) {
	jr.mu.Lock()
	if jr.failure == nil {
		jr.failure = err
	}
	jr.cond.Broadcast()
	jr.mu.Unlock()
}

func (jr *jobRun) failed() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.failure
}

func (jr *jobRun) run() (*Result, error) {
	start := time.Now()
	job := jr.job
	jr.cond = sync.NewCond(&jr.mu)
	jr.doneMaps = map[int]bool{}
	jr.runningMaps = map[int]int{}
	jr.backedUp = map[int]bool{}
	jr.attemptSeq = map[int]int{}
	jr.mapQueue = make([]int, len(jr.splits))
	for i := range jr.mapQueue {
		jr.mapQueue[i] = i
	}
	if job.Progress != nil {
		job.Progress.SetTotals(len(jr.splits), job.NumReduces)
	}

	var wg sync.WaitGroup
	// Map phase workers: MapSlots per tracker, locality-aware pulls.
	for _, tt := range jr.cluster.nodes {
		for s := 0; s < job.MapSlots; s++ {
			wg.Add(1)
			go func(tt *taskTracker) {
				defer wg.Done()
				for {
					mapID, _, ok := jr.nextMap(tt.node)
					if !ok {
						return
					}
					err := jr.attempt(func(int) error {
						return jr.runMap(tt, mapID, jr.newAttemptID(mapID))
					})
					jr.mu.Lock()
					jr.runningMaps[mapID]--
					jr.mu.Unlock()
					if err != nil {
						jr.fail(err)
						return
					}
				}
			}(tt)
		}
	}

	// Reduce phase workers: launched after slow-start.
	reduceIDs := make(chan int)
	var rwg sync.WaitGroup
	for _, tt := range jr.cluster.nodes {
		for s := 0; s < job.ReduceSlots; s++ {
			rwg.Add(1)
			go func(tt *taskTracker) {
				defer rwg.Done()
				for r := range reduceIDs {
					if err := jr.attempt(func(a int) error { return jr.runReduce(tt, r, a) }); err != nil {
						jr.fail(err)
						return
					}
				}
			}(tt)
		}
	}

	// The JobTracker launches reducers once slow-start is reached.
	go func() {
		threshold := int(job.SlowStart * float64(len(jr.splits)))
		if threshold < 1 {
			threshold = 1
		}
		jr.mu.Lock()
		for jr.mapsDone < threshold && jr.failure == nil {
			jr.cond.Wait()
		}
		failed := jr.failure != nil
		jr.mu.Unlock()
		if !failed {
			for r := 0; r < job.NumReduces; r++ {
				reduceIDs <- r
			}
		}
		close(reduceIDs)
	}()

	wg.Wait()
	rwg.Wait()
	if err := jr.failed(); err != nil {
		return nil, err
	}
	jr.cleanupMapOutputs()
	jr.res.Elapsed = time.Since(start)
	jr.res.MapsRun = len(jr.splits)
	jr.res.ReducesRun = job.NumReduces
	jr.res.ShuffledBytes = jr.shuffled.Load()
	jr.res.SpilledBytes = jr.spilled.Load()
	jr.res.MapOutputRecords = jr.maprecs.Load()
	res := jr.res
	return &res, nil
}

// newAttemptID allocates the next attempt number for a map.
func (jr *jobRun) newAttemptID(mapID int) int {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	a := jr.attemptSeq[mapID]
	jr.attemptSeq[mapID] = a + 1
	return a
}

// nextMap pulls the next map task for a node, preferring splits whose
// block has a replica on that node (Hadoop's locality-aware scheduling).
// With speculative execution on, an idle slot whose queue has drained may
// instead get a backup attempt of a still-running map.
func (jr *jobRun) nextMap(node int) (mapID int, backup, ok bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.failure != nil {
		return 0, false, false
	}
	if len(jr.mapQueue) == 0 {
		if !jr.job.Speculative {
			return 0, false, false
		}
		for mid, n := range jr.runningMaps {
			if n > 0 && !jr.doneMaps[mid] && !jr.backedUp[mid] {
				jr.backedUp[mid] = true
				jr.runningMaps[mid]++
				jr.res.SpeculativeLaunched++
				return mid, true, true
			}
		}
		return 0, false, false
	}
	pick := -1
	for i, mid := range jr.mapQueue {
		for _, h := range jr.splits[mid].Block.Hosts {
			if h == node {
				pick = i
				break
			}
		}
		if pick >= 0 {
			break
		}
	}
	if pick >= 0 {
		jr.res.LocalMaps++
	} else {
		pick = 0
		jr.res.RemoteMaps++
	}
	mid := jr.mapQueue[pick]
	jr.mapQueue = append(jr.mapQueue[:pick], jr.mapQueue[pick+1:]...)
	jr.runningMaps[mid]++
	return mid, false, true
}

// commitMap decides an attempt's fate, first-wins: the winner's output is
// published to the reducers; a loser's output and counters are rolled
// back. It returns whether the attempt won.
func (jr *jobRun) commitMap(buf *mapOutputBuffer, node int) bool {
	jr.mu.Lock()
	if jr.doneMaps[buf.mapID] {
		if buf.attempt == 0 {
			jr.res.SpeculativeWon++ // a backup beat the original
		}
		jr.mu.Unlock()
		buf.discard()
		_ = buf.tt.disk.Remove(mapOutName(jr.id, buf.mapID, buf.attempt))
		_ = buf.tt.disk.Remove(mapIdxName(jr.id, buf.mapID, buf.attempt))
		return false
	}
	jr.doneMaps[buf.mapID] = true
	jr.completedMaps = append(jr.completedMaps, mapCompletion{
		mapID: buf.mapID, node: node, attempt: buf.attempt,
	})
	jr.mapsDone++
	jr.cond.Broadcast()
	jr.mu.Unlock()
	if jr.job.Progress != nil {
		jr.job.Progress.FinishO()
	}
	return true
}

// waitMapEvents blocks until at least n map completions exist (or failure)
// and returns the events seen so far — the reducer's event-polling loop.
func (jr *jobRun) waitMapEvents(n int) ([]mapCompletion, error) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	for len(jr.completedMaps) < n && jr.failure == nil {
		jr.cond.Wait()
	}
	if jr.failure != nil {
		return nil, jr.failure
	}
	return append([]mapCompletion(nil), jr.completedMaps...), nil
}

// attempt runs a task function up to MaxAttempts times, counting retries.
func (jr *jobRun) attempt(run func(attempt int) error) error {
	var err error
	for a := 0; a < jr.job.MaxAttempts; a++ {
		if a > 0 {
			jr.mu.Lock()
			jr.res.TaskRetries++
			jr.mu.Unlock()
		}
		if err = run(a); err == nil {
			return nil
		}
	}
	return err
}

func (jr *jobRun) cleanupMapOutputs() {
	for _, tt := range jr.cluster.nodes {
		_ = tt.disk.RemoveAll(fmt.Sprintf("mapout/job%d", jr.id))
	}
}
