// Package metrics collects the time-series resource profiles the paper
// reports in Figures 9, 11 and 13(b): CPU utilization, disk read/write
// throughput, network throughput, memory footprint, and job progress.
// Engines instrument themselves with a BusyTracker (compute sections) and a
// Gauge (buffer memory); disks and links already count bytes, so a
// Collector only has to sample deltas.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/netsim"
)

// BusyTracker accumulates the time goroutines spend in compute sections;
// utilization over an interval is busy-time delta / (interval x cores).
type BusyTracker struct {
	busyNS atomic.Int64
}

// Track marks the start of a compute section; call the returned func at the
// end (typically via defer).
func (b *BusyTracker) Track() func() {
	start := time.Now()
	return func() { b.busyNS.Add(int64(time.Since(start))) }
}

// Add records d of busy time directly.
func (b *BusyTracker) Add(d time.Duration) { b.busyNS.Add(int64(d)) }

// Total returns cumulative busy time.
func (b *BusyTracker) Total() time.Duration { return time.Duration(b.busyNS.Load()) }

// Gauge is an instantaneous quantity (e.g. bytes of buffered intermediate
// data) that can move up and down.
type Gauge struct {
	v atomic.Int64
}

// Add increases the gauge by n (use a negative n to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Sample is one point of a resource profile.
type Sample struct {
	T            time.Duration // since collection start
	CPUPercent   float64
	DiskReadBps  float64
	DiskWriteBps float64
	NetBps       float64
	MemoryBytes  int64
	ProgressO    float64 // 0..100, O/map phase
	ProgressA    float64 // 0..100, A/reduce phase
}

// Collector samples a job's resource counters on a fixed interval.
type Collector struct {
	interval time.Duration
	cores    int
	busy     *BusyTracker
	mem      *Gauge
	disks    []*diskio.Disk
	links    []*netsim.Link
	progress func() (o, a float64)

	mu       sync.Mutex
	samples  []Sample
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Config configures a Collector. Nil fields are simply not sampled.
type Config struct {
	Interval time.Duration
	Cores    int
	Busy     *BusyTracker
	Memory   *Gauge
	Disks    []*diskio.Disk
	Links    []*netsim.Link
	Progress func() (o, a float64)
}

// NewCollector creates (but does not start) a Collector.
func NewCollector(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	return &Collector{
		interval: cfg.Interval,
		cores:    cfg.Cores,
		busy:     cfg.Busy,
		mem:      cfg.Memory,
		disks:    cfg.Disks,
		links:    cfg.Links,
		progress: cfg.Progress,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start begins sampling until Stop is called. The baseline snapshot is
// taken synchronously, so activity after Start always lands in a delta.
func (c *Collector) Start() {
	start := time.Now()
	prev, last := c.snapshot(), start
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		ticked := false
		for {
			select {
			case <-c.stop:
				// The partial interval since the last tick: without it a
				// phase shorter than one interval would leave no sample.
				// After a tick, a tail under half an interval is dropped:
				// one block write divided by a few microseconds would
				// print as a rate spike.
				now := time.Now()
				if dt := now.Sub(last); !ticked || dt >= c.interval/2 {
					c.record(now.Sub(start), dt, prev, c.snapshot())
				}
				return
			case now := <-ticker.C:
				cur := c.snapshot()
				c.record(now.Sub(start), now.Sub(last), prev, cur)
				prev, last, ticked = cur, now, true
			}
		}
	}()
}

type snap struct {
	busy  time.Duration
	dRead int64
	dWrit int64
	net   int64
}

func (c *Collector) snapshot() snap {
	var s snap
	if c.busy != nil {
		s.busy = c.busy.Total()
	}
	for _, d := range c.disks {
		s.dRead += d.BytesRead()
		s.dWrit += d.BytesWritten()
	}
	for _, l := range c.links {
		st := l.Stats()
		s.net += st.PayloadBytes + st.OverheadBytes
	}
	return s
}

// record appends the sample for the interval of length dt ending at t.
func (c *Collector) record(t, dt time.Duration, prev, cur snap) {
	iv := max(dt, time.Microsecond).Seconds()
	smp := Sample{
		T:            t,
		CPUPercent:   100 * (cur.busy - prev.busy).Seconds() / (iv * float64(c.cores)),
		DiskReadBps:  float64(cur.dRead-prev.dRead) / iv,
		DiskWriteBps: float64(cur.dWrit-prev.dWrit) / iv,
		NetBps:       float64(cur.net-prev.net) / iv,
	}
	if smp.CPUPercent > 100 {
		smp.CPUPercent = 100
	}
	if c.mem != nil {
		smp.MemoryBytes = c.mem.Value()
	}
	if c.progress != nil {
		smp.ProgressO, smp.ProgressA = c.progress()
	}
	c.mu.Lock()
	c.samples = append(c.samples, smp)
	c.mu.Unlock()
}

// Stop ends sampling, records the final partial interval (unless it is
// under half an interval and a tick already recorded a sample), and
// returns the collected series — at least one sample, however short the
// collection.
// It is safe to call from multiple goroutines; every call returns the full
// series.
func (c *Collector) Stop() []Sample {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), c.samples...)
}

// PhaseProgress tracks completed-task counts for the bipartite phases, for
// the Fig. 9 progress curves.
type PhaseProgress struct {
	oDone, oTotal atomic.Int64
	aDone, aTotal atomic.Int64
}

// SetTotals sets the task counts for both phases.
func (p *PhaseProgress) SetTotals(o, a int) {
	p.oTotal.Store(int64(o))
	p.aTotal.Store(int64(a))
}

// FinishO marks one O task complete.
func (p *PhaseProgress) FinishO() { p.oDone.Add(1) }

// FinishA marks one A task complete.
func (p *PhaseProgress) FinishA() { p.aDone.Add(1) }

// Percent returns the completion percentages of both phases, clamped to
// [0, 100] — tasks finished before SetTotals (or beyond the declared
// totals) must not report over-unity progress.
func (p *PhaseProgress) Percent() (o, a float64) {
	if t := p.oTotal.Load(); t > 0 {
		o = 100 * float64(p.oDone.Load()) / float64(t)
	}
	if t := p.aTotal.Load(); t > 0 {
		a = 100 * float64(p.aDone.Load()) / float64(t)
	}
	if o > 100 {
		o = 100
	}
	if a > 100 {
		a = 100
	}
	return o, a
}
