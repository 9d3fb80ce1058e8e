package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
	"datampi/internal/launch"
	"datampi/internal/mpi"
)

// Layer measurements taken from outside the program: replays feed a
// workload's own records through a layer's public functions in one
// goroutine; probes are fixed-input microbenchmarks of public functions.
// Neither touches the end-to-end numbers — they run only in a traced
// invocation.

const splBytes = 64 << 10 // core.Config.SPLBytes default: the batch size kv works on

// replayKV times the kv layer on the records one job of the workload
// moves: encode into SPL-sized buffers, decode them back, sort each batch,
// combine it (when the workload has a combiner), and k-way merge the runs
// one A task receives. Results are ns per record.
func replayKV(recs []kv.Record, partition kv.Partition, combine kv.Combine, numA int, rec *recorder) map[string]float64 {
	out := map[string]float64{}
	root := rec.begin("replay.kv", nil)
	defer root.end()
	perRec := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	timed := func(name string, fn func()) time.Duration {
		sp := rec.begin("replay.kv."+name, root)
		start := time.Now()
		fn()
		d := time.Since(start)
		sp.end()
		return d
	}

	// Encode: one buffer per destination partition, sealed at SPLBytes,
	// as a task's send partition list does.
	var batches [][]byte
	var batchPart []int
	d := timed("encode", func() {
		bufs := make([][]byte, numA)
		for _, r := range recs {
			p := partition(r.Key, r.Value, numA)
			bufs[p] = kv.AppendRecord(bufs[p], r)
			if len(bufs[p]) >= splBytes {
				batches, batchPart = append(batches, bufs[p]), append(batchPart, p)
				bufs[p] = make([]byte, 0, splBytes+256)
			}
		}
		for p, b := range bufs {
			if len(b) > 0 {
				batches, batchPart = append(batches, b), append(batchPart, p)
			}
		}
	})
	out["kv.encode_ns_rec"] = perRec(d, len(recs))

	decoded := make([][]kv.Record, len(batches))
	d = timed("decode", func() {
		for i, b := range batches {
			decoded[i], _ = kv.DecodeAllInto(nil, b)
		}
	})
	out["kv.decode_ns_rec"] = perRec(d, len(recs))

	d = timed("sort", func() {
		for _, b := range decoded {
			kv.SortRecords(b, kv.DefaultCompare)
		}
	})
	out["kv.sort_ns_rec"] = perRec(d, len(recs))

	if combine != nil {
		d = timed("combine", func() {
			for i, b := range decoded {
				decoded[i] = kv.ApplyCombine(b, kv.DefaultCompare, combine)
			}
		})
		out["kv.combine_ns_rec"] = perRec(d, len(recs))
	}

	// Merge: the sorted runs partition 0's A task receives.
	var srcs []kv.Iterator
	merged := 0
	for i, b := range decoded {
		if batchPart[i] == 0 {
			srcs = append(srcs, kv.NewSliceIterator(b))
			merged += len(b)
		}
	}
	var mergeErr error
	d = timed("merge", func() {
		m, err := kv.NewMerger(kv.DefaultCompare, srcs...)
		if err != nil {
			mergeErr = err
			return
		}
		for {
			if _, err := m.Next(); err != nil {
				if err != io.EOF {
					mergeErr = err
				}
				return
			}
		}
	})
	if mergeErr == nil {
		out["kv.merge_ns_rec"] = perRec(d, merged)
	}
	return out
}

// teraRecordsOf reads a TeraGen file back as records (for the replay).
func teraRecordsOf(fs *hdfs.FileSystem) ([]kv.Record, error) {
	data, err := fs.ReadAll(teraInput, -1)
	if err != nil {
		return nil, err
	}
	recs := make([]kv.Record, 0, len(data)/teraRecordSize)
	for off := 0; off+teraRecordSize <= len(data); off += teraRecordSize {
		row := data[off : off+teraRecordSize]
		recs = append(recs, kv.Record{Key: row[:teraKeySize], Value: row[teraKeySize:]})
	}
	return recs, nil
}

// wordRecordsOf reads the WordCount text back as (word, 1) records.
func wordRecordsOf(fs *hdfs.FileSystem) ([]kv.Record, error) {
	data, err := fs.ReadAll(wcInput, -1)
	if err != nil {
		return nil, err
	}
	one := u64(1)
	words := bytes.Fields(data)
	recs := make([]kv.Record, len(words))
	for i, w := range words {
		recs[i] = kv.Record{Key: w, Value: one}
	}
	return recs, nil
}

// probeResult is the workload-independent probes' output, measured once
// per process and reported with every traced workload.
type probeResult struct {
	values map[string]float64
	notes  []string
}

var (
	probeOnce sync.Once
	probed    probeResult
)

// commonProbes runs the mpi link, disk, hdfs, launch and reference probes.
// A probe that cannot run leaves its metrics at 0 and says why; it is a
// diagnostic, not a workload operation, so it is not counted as failed.
func commonProbes(seed int64) probeResult {
	probeOnce.Do(func() {
		probed.values = map[string]float64{}
		add := func(what string, vals map[string]float64, err error) {
			for k, v := range vals {
				probed.values[k] = v
			}
			if err != nil {
				probed.notes = append(probed.notes, fmt.Sprintf("probe %s: %v", what, err))
			}
		}
		for _, link := range []string{"mem", "tcp", "shm"} {
			vals, err := probeLink(link)
			add("mpi."+link, vals, err)
		}
		vals, err := probeDisk()
		add("disk", vals, err)
		vals, err = probeLaunch()
		add("launch", vals, err)
		vals, err = probeReference(seed)
		add("reference", vals, err)
	})
	return probed
}

// linkWorld opens a 2-rank world over the named link.
func linkWorld(link string) (*mpi.World, error) {
	switch link {
	case "mem":
		return mpi.NewWorld(2)
	case "tcp":
		return mpi.NewWorld(2, mpi.WithTCP())
	case "shm":
		return mpi.NewWorld(2, mpi.WithTCP(), mpi.WithShm())
	}
	return nil, fmt.Errorf("unknown link %q", link)
}

const (
	probeSmall  = 64        // bytes: latency and message-rate payload
	probeLarge  = 256 << 10 // bytes: bandwidth payload
	probeWindow = 300 * time.Millisecond
	probeBurst  = 64 // one-way messages per acknowledgement
)

// probeLink measures one link under the full progress engine: half the
// round trip of a 64 B ping-pong, the one-way rate of 256 KiB messages,
// and the one-way rate of 64 B messages (where coalescing is at work).
func probeLink(link string) (map[string]float64, error) {
	w, err := linkWorld(link)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	out := map[string]float64{}
	pre := "mpi." + link + "."

	// Ping-pong. Rank 1 echoes until it sees an empty message.
	echoDone := make(chan error, 1)
	go func() {
		for {
			b, _, err := c1.Recv(0, 0)
			if err != nil || len(b) == 0 {
				echoDone <- err
				return
			}
			if err := c1.Send(0, 0, b); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	msg := make([]byte, probeSmall)
	var rtts []float64
	deadline := time.Now().Add(probeWindow)
	for i := 0; i < 200 || time.Now().Before(deadline); i++ {
		start := time.Now()
		if err := c0.Send(1, 0, msg); err != nil {
			return out, err
		}
		if _, _, err := c0.Recv(1, 0); err != nil {
			return out, err
		}
		if i >= 100 { // the first round trips dial and warm the path
			rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1000)
		}
	}
	if err := c0.Send(1, 0, nil); err != nil {
		return out, err
	}
	if err := <-echoDone; err != nil {
		return out, err
	}
	out[pre+"lat_us"] = median(rtts) / 2

	// One-way streams, windowed as in the OSU bandwidth tests: rank 0 sends
	// a window of messages, rank 1 acknowledges the window, repeat. The
	// window bounds the receive queue; elapsed covers delivery, not just
	// the deposit into a batch.
	oneWay := func(size, windows int) (time.Duration, error) {
		recvErr := make(chan error, 1)
		go func() {
			for w := 0; w < windows; w++ {
				for i := 0; i < probeBurst; i++ {
					if _, _, err := c1.Recv(0, 1); err != nil {
						recvErr <- err
						return
					}
				}
				if err := c1.Send(0, 2, []byte{1}); err != nil {
					recvErr <- err
					return
				}
			}
			recvErr <- nil
		}()
		buf := make([]byte, size)
		start := time.Now()
		for w := 0; w < windows; w++ {
			for i := 0; i < probeBurst; i++ {
				if err := c0.Send(1, 1, buf); err != nil {
					return 0, err
				}
			}
			if _, _, err := c0.Recv(1, 2); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		return d, <-recvErr
	}
	const bwWindows, rateWindows = 16, 4000 // 256 MiB and 256k messages: ~0.1-0.3 s each
	for _, warm := range []bool{true, false} {
		d, err := oneWay(probeLarge, bwWindows)
		if err != nil {
			return out, err
		}
		if !warm {
			out[pre+"bw_mb_s"] = float64(bwWindows*probeBurst) * probeLarge / 1e6 / d.Seconds()
		}
	}
	d, err := oneWay(probeSmall, rateWindows)
	if err != nil {
		return out, err
	}
	out[pre+"msgrate_k_s"] = float64(rateWindows*probeBurst) / 1e3 / d.Seconds()
	return out, nil
}

// probeDisk measures the floor under spill, checkpoint and HDFS traffic:
// 64 MiB through diskio in 1 MiB calls, and 32 MiB through a fresh
// mini-HDFS with replication 2, written then scanned split by split.
func probeDisk() (map[string]float64, error) {
	out := map[string]float64{}
	base, err := os.MkdirTemp("", tempPrefix+"probe-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(base)

	const chunk, total = 1 << 20, 64 << 20
	d, err := diskio.New(filepath.Join(base, "disk"))
	if err != nil {
		return out, err
	}
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	f, err := d.Create("probe")
	if err != nil {
		return out, err
	}
	start := time.Now()
	for n := 0; n < total; n += chunk {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return out, err
		}
	}
	if err := f.Close(); err != nil {
		return out, err
	}
	out["diskio.write_mb_s"] = total / 1e6 / time.Since(start).Seconds()
	if f, err = d.Open("probe"); err != nil {
		return out, err
	}
	start = time.Now()
	for {
		if _, err := io.ReadFull(f, buf); err != nil {
			break
		}
	}
	f.Close()
	out["diskio.read_mb_s"] = total / 1e6 / time.Since(start).Seconds()

	nodes := make([]*diskio.Disk, benchProcs)
	for i := range nodes {
		if nodes[i], err = diskio.New(filepath.Join(base, fmt.Sprintf("dn%d", i))); err != nil {
			return out, err
		}
	}
	fs, err := hdfs.New(hdfs.Config{BlockSize: hdfsBlock, Replication: 2}, nodes)
	if err != nil {
		return out, err
	}
	const hdfsTotal = 32 << 20
	start = time.Now()
	w, err := fs.Create("/probe", -1)
	if err != nil {
		return out, err
	}
	for n := 0; n < hdfsTotal; n += chunk {
		if _, err := w.Write(buf); err != nil {
			return out, err
		}
	}
	if err := w.Close(); err != nil {
		return out, err
	}
	out["hdfs.write_mb_s"] = hdfsTotal / 1e6 / time.Since(start).Seconds()
	splits, err := fs.Splits("/probe")
	if err != nil {
		return out, err
	}
	start = time.Now()
	for _, s := range splits {
		if _, _, err := fs.ReadBlock(s.Path, s.Block.Index, s.Block.Index%benchProcs); err != nil {
			return out, err
		}
	}
	out["hdfs.read_mb_s"] = hdfsTotal / 1e6 / time.Since(start).Seconds()
	return out, nil
}

// probeLaunch measures proc mode, which the in-process workloads bypass
// by construction: spawn + rendezvous of a 2-worker fleet, its shutdown,
// and the launcher's built-in terasort end to end over shared-memory
// rings and over TCP. The workers are re-executions of this binary (see
// main's IsSpawnedWorker routing).
func probeLaunch() (map[string]float64, error) {
	out := map[string]float64{}
	base, err := os.MkdirTemp("", tempPrefix+"launch-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(base)

	const reps = 3
	var starts, stops []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		cl, err := launch.StartCluster(launch.ClusterConfig{Procs: benchProcs, IOTimeout: 10 * time.Second, Output: io.Discard})
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		cl.Shutdown()
		starts = append(starts, float64(t1.Sub(t0))/float64(time.Millisecond))
		stops = append(stops, float64(time.Since(t1))/float64(time.Millisecond))
	}
	out["launch.start_ms"] = median(starts)
	out["launch.shutdown_ms"] = median(stops)

	// launch.Launch wedges now and then on the reference box (about one
	// launch in a hundred: the master waits on a live but silent worker).
	// That is a finding about proc mode, not a reason to lose the run: a
	// wedged launch is cut off, skipped and reported.
	jobs := map[bool][]float64{}
	var wedged error
	for i := 0; i < reps; i++ {
		for _, shmOff := range []bool{i%2 == 0, i%2 != 0} { // alternate which link goes first
			spec := &launch.JobSpec{
				App: "terasort", NumO: benchProcs * benchSlots, NumA: benchProcs * benchSlots,
				Procs: benchProcs, Slots: benchSlots, Records: 200_000, Seed: 1,
				OutDir: filepath.Join(base, fmt.Sprintf("out-%d-%v", i, shmOff)),
				ShmOff: shmOff, IOTimeoutMs: 10_000,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			t0 := time.Now()
			_, err := launch.Launch(spec, launch.Options{Output: io.Discard, Ctx: ctx})
			cancel()
			if err != nil {
				wedged = fmt.Errorf("launch (shmOff=%v) skipped: %w", shmOff, err)
				continue
			}
			jobs[shmOff] = append(jobs[shmOff], float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	out["launch.job_ms.shm"] = median(jobs[false])
	out["launch.job_ms.tcp"] = median(jobs[true])
	return out, wedged
}

// probeReference times the two batch problems on one goroutine with no
// runtime at all: read the input, sort it with the standard library (or
// count it into one map), write the result. A job slower than this is a
// finding.
func probeReference(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	var in bytes.Buffer
	if _, err := teraGen(&in, teraRecords, seed); err != nil {
		return out, err
	}
	start := time.Now()
	data := in.Bytes()
	rows := make([][]byte, 0, teraRecords)
	for off := 0; off+teraRecordSize <= len(data); off += teraRecordSize {
		rows = append(rows, data[off:off+teraRecordSize])
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i][:teraKeySize], rows[j][:teraKeySize]) < 0 })
	var sorted bytes.Buffer
	sorted.Grow(len(data))
	for _, r := range rows {
		sorted.Write(r)
	}
	out["ref.sort_s"] = time.Since(start).Seconds()

	in.Reset()
	if _, err := textGen(&in, wcLines, wcWordsLine, wcVocab, seed); err != nil {
		return out, err
	}
	start = time.Now()
	counts := map[string]uint64{}
	for _, w := range bytes.Fields(in.Bytes()) {
		counts[string(w)]++
	}
	var res bytes.Buffer
	for w, c := range counts {
		fmt.Fprintf(&res, "%s\t%d\n", w, c)
	}
	out["ref.wordcount_s"] = time.Since(start).Seconds()
	return out, nil
}
