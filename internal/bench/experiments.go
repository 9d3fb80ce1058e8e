package bench

import (
	"errors"
	"fmt"
	"time"

	"datampi/internal/core"
	"datampi/internal/metrics"
	"datampi/internal/simcluster"
)

// Opts sizes the laptop-scale experiment runs. The defaults keep every
// driver under a few seconds; cmd/benchsuite scales them up.
type Opts struct {
	Nodes       int // simulated cluster nodes
	TeraRecords int // TeraSort input records (100 B each)
	TextLines   int // WordCount input lines
	GraphN      int // PageRank pages
	PointsN     int // K-means points
	Rounds      int // iteration rounds (paper: 7)
	Events      int // Top-K events
	EventRate   int // Top-K events/second
}

// Quick returns the small test-suite sizing.
func Quick() Opts {
	return Opts{
		Nodes: 2, TeraRecords: 4000, TextLines: 600,
		GraphN: 300, PointsN: 400, Rounds: 3, Events: 300, EventRate: 3000,
	}
}

// Default returns the benchsuite sizing.
func Default() Opts {
	return Opts{
		Nodes: 4, TeraRecords: 60000, TextLines: 8000,
		GraphN: 3000, PointsN: 6000, Rounds: 7, Events: 2000, EventRate: 1000,
	}
}

func (o Opts) teraBlock() int64 {
	// ~8 blocks per node so scheduling waves resemble the paper's.
	b := int64(o.TeraRecords*TeraRecordSize) / int64(o.Nodes*8)
	if b < 4<<10 {
		b = 4 << 10
	}
	return b
}

func newTeraEnv(o Opts, block int64) (*Env, error) {
	env, err := NewEnv(EnvConfig{Nodes: o.Nodes, BlockSize: block})
	if err != nil {
		return nil, err
	}
	if err := TeraGen(env.FS, "/tera/in", o.TeraRecords, 42); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// Fig8a reproduces Figure 8(a): TeraSort throughput vs HDFS block size,
// measured at laptop scale and modelled at the paper's 96 GB scale.
func Fig8a(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig8a",
		Title:  "HDFS block size tuning: TeraSort throughput (MB/sec)",
		Header: []string{"Scale", "Block", "Hadoop", "DataMPI"},
	}
	data := float64(o.TeraRecords * TeraRecordSize)
	base := o.teraBlock()
	for _, mult := range []int64{1, 2, 4, 8} {
		block := base * mult
		env, err := newTeraEnv(o, block)
		if err != nil {
			return nil, err
		}
		hres, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, Instr{})
		if err != nil {
			env.Close()
			return nil, err
		}
		dres, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{}, Instr{})
		env.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("measured", fmt.Sprintf("%dKB", block>>10),
			mbps(data/hres.Elapsed.Seconds()), mbps(data/dres.Elapsed.Seconds()))
	}
	for _, mb := range []float64{64e6, 128e6, 256e6, 512e6, 1024e6} {
		w := simcluster.TeraSort(96e9, mb)
		h := simcluster.SimulateHadoop(16, simcluster.TestbedA(), w, simcluster.DefaultHadoop())
		d := simcluster.SimulateDataMPI(16, simcluster.TestbedA(), w, simcluster.DefaultDataMPI())
		t.AddRow("DES 96GB/16n", fmt.Sprintf("%.0fMB", mb/1e6),
			mbps(96e9/h.Duration), mbps(96e9/d.Duration))
	}
	t.Note("paper: both engines peak at 256MB blocks on Testbed A")
	return t, nil
}

// Fig8b reproduces Figure 8(b): TeraSort throughput vs concurrent A
// (reduce) tasks per node.
func Fig8b(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig8b",
		Title:  "Concurrent A/reduce tasks per node: TeraSort throughput (MB/sec)",
		Header: []string{"Scale", "Tasks/node", "Hadoop", "DataMPI"},
	}
	data := float64(o.TeraRecords * TeraRecordSize)
	for _, slots := range []int{2, 4, 6, 8} {
		env, err := newTeraEnv(o, o.teraBlock())
		if err != nil {
			return nil, err
		}
		hres, err := HadoopTeraSort(env, "/tera/in", o.Nodes*slots, slots, slots, Instr{})
		if err != nil {
			env.Close()
			return nil, err
		}
		dres, err := DataMPITeraSort(env, "/tera/in",
			TeraSortOpts{NumA: o.Nodes * slots, Slots: slots}, Instr{})
		env.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("measured", fmt.Sprintf("%d", slots),
			mbps(data/hres.Elapsed.Seconds()), mbps(data/dres.Elapsed.Seconds()))
	}
	for _, slots := range []int{2, 4, 6, 8} {
		w := simcluster.TeraSort(2e9*float64(16*slots), 256e6) // 2 GB per task
		hp := simcluster.DefaultHadoop()
		hp.MapSlots, hp.ReduceSlots = slots, slots
		dp := simcluster.DefaultDataMPI()
		dp.OSlots, dp.ASlots = slots, slots
		h := simcluster.SimulateHadoop(16, simcluster.TestbedA(), w, hp)
		d := simcluster.SimulateDataMPI(16, simcluster.TestbedA(), w, dp)
		t.AddRow("DES 2GB/task", fmt.Sprintf("%d", slots),
			mbps(w.DataBytes/h.Duration), mbps(w.DataBytes/d.Duration))
	}
	t.Note("paper: best throughput at 4 concurrent reduce tasks per node")
	return t, nil
}

// progressRows samples one engine's progress curve into <=samples rows.
func progressRows(t *Table, engine string, series []metrics.Sample, max int) {
	step := len(series)/max + 1
	for i := 0; i < len(series); i += step {
		s := series[i]
		t.AddRow(engine, fmt.Sprintf("%d", s.T.Milliseconds()),
			fmt.Sprintf("%.0f", s.ProgressO), fmt.Sprintf("%.0f", s.ProgressA))
	}
}

// Fig9 reproduces Figure 9: TeraSort progress over time for both engines,
// measured at laptop scale plus the DES curves at 168 GB.
func Fig9(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "TeraSort progress over time (% complete)",
		Header: []string{"Engine", "t(ms)", "O/map %", "A/reduce %"},
	}
	run := func(name string, f func(inst Instr) error) error {
		var prog metrics.PhaseProgress
		col := metrics.NewCollector(metrics.Config{
			Interval: 10 * time.Millisecond,
			Progress: prog.Percent,
		})
		col.Start()
		err := f(Instr{Progress: &prog})
		series := col.Stop()
		if err != nil {
			return err
		}
		progressRows(t, name, series, 12)
		return nil
	}
	env, err := newTeraEnv(o, o.teraBlock())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if err := run("Hadoop", func(inst Instr) error {
		_, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, inst)
		return err
	}); err != nil {
		return nil, err
	}
	if err := run("DataMPI", func(inst Instr) error {
		_, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{}, inst)
		return err
	}); err != nil {
		return nil, err
	}
	// DES at the paper's 168 GB scale.
	w := simcluster.TeraSort(168e9, 256e6)
	h := simcluster.SimulateHadoop(16, simcluster.TestbedA(), w, simcluster.DefaultHadoop())
	d := simcluster.SimulateDataMPI(16, simcluster.TestbedA(), w, simcluster.DefaultDataMPI())
	for frac := 0.1; frac <= 1.0; frac += 0.15 {
		th := h.Duration * frac
		t.AddRow("Hadoop-DES168GB", fmt.Sprintf("%.0f", th*1000),
			fmt.Sprintf("%.0f", simcluster.Progress(h.MapDone, th)),
			fmt.Sprintf("%.0f", simcluster.Progress(h.ReduceDone, th)))
	}
	for frac := 0.1; frac <= 1.0; frac += 0.15 {
		td := d.Duration * frac
		t.AddRow("DataMPI-DES168GB", fmt.Sprintf("%.0f", td*1000),
			fmt.Sprintf("%.0f", simcluster.Progress(d.MapDone, td)),
			fmt.Sprintf("%.0f", simcluster.Progress(d.ReduceDone, td)))
	}
	t.Note("paper: 168GB on Testbed A finishes in 475s (Hadoop) vs 312s (DataMPI); DES: %.0fs vs %.0fs",
		h.Duration, d.Duration)
	return t, nil
}

// Fig10a reproduces Figure 10(a): TeraSort execution time vs input size.
func Fig10a(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig10a",
		Title:  "TeraSort execution time vs input size",
		Header: []string{"Scale", "Input", "Hadoop(s)", "DataMPI(s)", "Improvement"},
	}
	for _, frac := range []float64{0.5, 1, 1.5, 2} {
		recs := int(float64(o.TeraRecords) * frac)
		oo := o
		oo.TeraRecords = recs
		env, err := newTeraEnv(oo, oo.teraBlock())
		if err != nil {
			return nil, err
		}
		hres, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, Instr{})
		if err != nil {
			env.Close()
			return nil, err
		}
		dres, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{}, Instr{})
		if err != nil {
			env.Close()
			return nil, err
		}
		if err := VerifyTeraSort(env.FS, "/tera/in.sorted", recs); err != nil {
			env.Close()
			return nil, err
		}
		env.Close()
		t.AddRow("measured", fmt.Sprintf("%.1fMB", float64(recs*TeraRecordSize)/1e6),
			secs(hres.Elapsed.Seconds()), secs(dres.Elapsed.Seconds()),
			fmt.Sprintf("%.0f%%", 100*(1-dres.Elapsed.Seconds()/hres.Elapsed.Seconds())))
	}
	for _, gb := range []float64{48, 72, 96, 120, 144, 168, 192} {
		w := simcluster.TeraSort(gb*1e9, 256e6)
		h := simcluster.SimulateHadoop(16, simcluster.TestbedA(), w, simcluster.DefaultHadoop())
		d := simcluster.SimulateDataMPI(16, simcluster.TestbedA(), w, simcluster.DefaultDataMPI())
		t.AddRow("DES 16 nodes", fmt.Sprintf("%.0fGB", gb),
			secs(h.Duration), secs(d.Duration),
			fmt.Sprintf("%.0f%%", 100*(1-d.Duration/h.Duration)))
	}
	t.Note("paper: DataMPI gains 32-41%% over Hadoop for 48-192GB")
	return t, nil
}

// WordCountExp reproduces the WordCount comparison of §V-C (DataMPI 31%
// faster than Hadoop).
func WordCountExp(o Opts) (*Table, error) {
	env, err := NewEnv(EnvConfig{Nodes: o.Nodes, BlockSize: 16 << 10})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if err := TextGen(env.FS, "/wc/in", o.TextLines, 10, 2000, 42); err != nil {
		return nil, err
	}
	hres, err := HadoopWordCount(env, "/wc/in", 0, Instr{})
	if err != nil {
		return nil, err
	}
	dres, err := DataMPIWordCount(env, "/wc/in", 0, 0, Instr{})
	if err != nil {
		return nil, err
	}
	d, err := ReadCounts(env.FS, "/wc/in.counts")
	if err != nil {
		return nil, err
	}
	h, err := ReadCounts(env.FS, "/wc/in.hcounts")
	if err != nil {
		return nil, err
	}
	if len(d) != len(h) {
		return nil, errors.New("bench: wordcount outputs disagree")
	}
	t := &Table{
		ID:     "wordcount",
		Title:  "WordCount execution time",
		Header: []string{"Engine", "Time(s)", "Improvement"},
	}
	t.AddRow("Hadoop", secs(hres.Elapsed.Seconds()), "-")
	t.AddRow("DataMPI", secs(dres.Elapsed.Seconds()),
		fmt.Sprintf("%.0f%%", 100*(1-dres.Elapsed.Seconds()/hres.Elapsed.Seconds())))
	rc := dres.RuntimeCounters
	t.Note("DataMPI shuffle counters: %d records / %d bytes sent, combine %d->%d records, %d spill bytes",
		rc["shuffle.records.sent"], rc["shuffle.bytes.sent"],
		rc["combine.records.in"], rc["combine.records.out"], rc["spill.bytes.written"])
	t.Note("paper: DataMPI speeds up WordCount by 31%%")
	return t, nil
}

// Fig11 reproduces Figure 11: resource utilization profiles of a TeraSort
// run under both engines (CPU, disk, network, memory over time).
func Fig11(o Opts) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Resource utilization profile during TeraSort",
		Header: []string{"Engine", "t(ms)", "CPU%", "DiskR MB/s", "DiskW MB/s", "Net MB/s", "Mem KB"},
	}
	env, err := NewEnv(EnvConfig{
		Nodes:     o.Nodes,
		BlockSize: o.teraBlock(),
		Network:   fig11Link(),
	})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if err := TeraGen(env.FS, "/tera/in", o.TeraRecords, 42); err != nil {
		return nil, err
	}
	run := func(name string, f func(inst Instr) error) error {
		env.ResetCounters()
		var busy metrics.BusyTracker
		var mem metrics.Gauge
		col := metrics.NewCollector(metrics.Config{
			Interval: 10 * time.Millisecond,
			Cores:    o.Nodes * 2,
			Busy:     &busy,
			Memory:   &mem,
			Disks:    env.AllDisks(),
			Links:    links(env),
		})
		col.Start()
		err := f(Instr{Busy: &busy, Mem: &mem})
		series := col.Stop()
		if err != nil {
			return err
		}
		step := len(series)/10 + 1
		for i := 0; i < len(series); i += step {
			s := series[i]
			t.AddRow(name, fmt.Sprintf("%d", s.T.Milliseconds()),
				fmt.Sprintf("%.0f", s.CPUPercent),
				mbps(s.DiskReadBps), mbps(s.DiskWriteBps), mbps(s.NetBps),
				fmt.Sprintf("%d", s.MemoryBytes/1024))
		}
		return nil
	}
	if err := run("Hadoop", func(inst Instr) error {
		_, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, inst)
		return err
	}); err != nil {
		return nil, err
	}
	if err := run("DataMPI", func(inst Instr) error {
		_, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{}, inst)
		return err
	}); err != nil {
		return nil, err
	}
	t.Note("paper: DataMPI reads ~69%% faster in O phase, writes ~half the data, uses less memory")
	return t, nil
}

// Fig12 reproduces Figure 12: DataMPI TeraSort time vs the fraction of
// intermediate data cached in memory (the rest spills to disk).
func Fig12(o Opts) (*Table, error) {
	env, err := newTeraEnv(o, o.teraBlock())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	t := &Table{
		ID:     "fig12",
		Title:  "Spill-over efficiency: in-memory cache fraction vs TeraSort time",
		Header: []string{"Engine", "Cache %", "Time(s)", "Spilled MB"},
	}
	total := int64(o.TeraRecords * TeraRecordSize)
	perProc := total / int64(o.Nodes)
	for _, pct := range []int{0, 25, 50, 75, 100} {
		cache := perProc * int64(pct) / 100
		if cache <= 0 {
			cache = 1 // force near-total spilling ("zero caching")
		}
		if pct == 100 {
			cache = 0 // unlimited
		}
		res, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{MemCacheBytes: cache}, Instr{})
		if err != nil {
			return nil, err
		}
		t.AddRow("DataMPI", fmt.Sprintf("%d", pct),
			secs(res.Elapsed.Seconds()), fmt.Sprintf("%.1f", float64(res.SpilledBytes)/1e6))
	}
	hres, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, Instr{})
	if err != nil {
		return nil, err
	}
	t.AddRow("Hadoop", "-", secs(hres.Elapsed.Seconds()), "-")
	t.Note("paper: degradation <=9%% from full to zero caching; zero-cache DataMPI still beats Hadoop")
	return t, nil
}

// Fig13a reproduces Figure 13(a): fault-tolerance efficiency — checkpoint
// overhead and recovery cost for different checkpointed data sizes.
func Fig13a(o Opts, cpDir func() string) (*Table, error) {
	env, err := newTeraEnv(o, o.teraBlock())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	t := &Table{
		ID:    "fig13a",
		Title: "Fault tolerance efficiency (TeraSort)",
		Header: []string{"Run", "CP %", "Exec(s)", "Restart(s)", "Reload(s)",
			"Reloaded records"},
	}
	base, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{}, Instr{})
	if err != nil {
		return nil, err
	}
	t.AddRow("DataMPI default", "-", secs(base.Elapsed.Seconds()), "-", "-", "-")
	ftClean, err := DataMPITeraSort(env, "/tera/in", TeraSortOpts{
		FaultTolerance: true, CheckpointDir: cpDir(),
		CheckpointRecords: int64(o.TeraRecords / 50),
	}, Instr{})
	if err != nil {
		return nil, err
	}
	t.AddRow("DataMPI-FT (no crash)", "100", secs(ftClean.Elapsed.Seconds()), "-", "-", "-")
	hres, err := HadoopTeraSort(env, "/tera/in", 0, 2, 2, Instr{})
	if err != nil {
		return nil, err
	}
	t.AddRow("Hadoop", "-", secs(hres.Elapsed.Seconds()), "-", "-", "-")
	for _, pct := range []int{20, 40, 60, 80} {
		dir := cpDir()
		opts := TeraSortOpts{
			FaultTolerance: true, CheckpointDir: dir,
			CheckpointRecords: int64(o.TeraRecords / 50),
			InjectFailAfterCP: int64(o.TeraRecords * pct / 100),
		}
		if _, err := DataMPITeraSort(env, "/tera/in", opts, Instr{}); !errors.Is(err, core.ErrInjectedFailure) {
			return nil, fmt.Errorf("bench: expected injected failure, got %v", err)
		}
		opts.InjectFailAfterCP = 0
		rec, err := DataMPITeraSort(env, "/tera/in", opts, Instr{})
		if err != nil {
			return nil, err
		}
		if err := VerifyTeraSort(env.FS, "/tera/in.sorted", o.TeraRecords); err != nil {
			return nil, fmt.Errorf("bench: recovered output invalid: %w", err)
		}
		t.AddRow("DataMPI-FT recover", fmt.Sprintf("%d", pct),
			secs(rec.Elapsed.Seconds()), secs(rec.SetupTime.Seconds()),
			secs(rec.ReloadTime.Seconds()), fmt.Sprintf("%d", rec.RecordsReloaded))
	}
	t.Note("paper: FT costs ~12%% over default, still 21%% better than Hadoop; restarts <3s; reload time grows with CP size")
	return t, nil
}

// Fig13b reproduces Figure 13(b): the CPU utilization timeline of a
// fault-tolerant job that crashes at 60% checkpointed data and recovers.
func Fig13b(o Opts, cpDir func() string) (*Table, error) {
	env, err := newTeraEnv(o, o.teraBlock())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	t := &Table{
		ID:     "fig13b",
		Title:  "CPU utilization of fault-tolerant TeraSort (60% checkpointed, crash + recover)",
		Header: []string{"Phase", "t(ms)", "CPU%"},
	}
	dir := cpDir()
	opts := TeraSortOpts{
		FaultTolerance: true, CheckpointDir: dir,
		CheckpointRecords: int64(o.TeraRecords / 50),
		InjectFailAfterCP: int64(o.TeraRecords * 60 / 100),
	}
	profile := func(phase string, f func(inst Instr) error) error {
		var busy metrics.BusyTracker
		col := metrics.NewCollector(metrics.Config{
			Interval: 10 * time.Millisecond,
			Cores:    o.Nodes * 2,
			Busy:     &busy,
		})
		col.Start()
		err := f(Instr{Busy: &busy})
		series := col.Stop()
		if err != nil {
			return err
		}
		step := len(series)/8 + 1
		for i := 0; i < len(series); i += step {
			s := series[i]
			t.AddRow(phase, fmt.Sprintf("%d", s.T.Milliseconds()),
				fmt.Sprintf("%.0f", s.CPUPercent))
		}
		return nil
	}
	if err := profile("before-crash", func(inst Instr) error {
		_, err := DataMPITeraSort(env, "/tera/in", opts, inst)
		if errors.Is(err, core.ErrInjectedFailure) {
			return nil
		}
		if err == nil {
			return errors.New("bench: crash did not fire")
		}
		return err
	}); err != nil {
		return nil, err
	}
	opts.InjectFailAfterCP = 0
	if err := profile("recover", func(inst Instr) error {
		_, err := DataMPITeraSort(env, "/tera/in", opts, inst)
		return err
	}); err != nil {
		return nil, err
	}
	t.Note("paper: recovery reloads checkpoints then resumes; total time only slightly above a clean run")
	return t, nil
}
