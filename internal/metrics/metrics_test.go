package metrics

import (
	"sync"
	"testing"
	"time"

	"datampi/internal/diskio"
	"datampi/internal/netsim"
)

func TestBusyTracker(t *testing.T) {
	var b BusyTracker
	end := b.Track()
	time.Sleep(20 * time.Millisecond)
	end()
	if got := b.Total(); got < 15*time.Millisecond {
		t.Errorf("busy = %v, want >= 15ms", got)
	}
	b.Add(time.Second)
	if got := b.Total(); got < time.Second {
		t.Errorf("after Add: %v", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(100)
	g.Add(-30)
	if g.Value() != 70 {
		t.Errorf("gauge = %d, want 70", g.Value())
	}
}

func TestPhaseProgress(t *testing.T) {
	var p PhaseProgress
	o, a := p.Percent()
	if o != 0 || a != 0 {
		t.Errorf("zero totals: %v %v", o, a)
	}
	p.SetTotals(4, 2)
	p.FinishO()
	p.FinishO()
	p.FinishA()
	o, a = p.Percent()
	if o != 50 || a != 50 {
		t.Errorf("progress = %v %v, want 50 50", o, a)
	}
}

func TestCollectorSamples(t *testing.T) {
	disk, err := diskio.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.Unlimited)
	var busy BusyTracker
	var mem Gauge
	var prog PhaseProgress
	prog.SetTotals(1, 1)
	c := NewCollector(Config{
		Interval: 10 * time.Millisecond,
		Cores:    2,
		Busy:     &busy,
		Memory:   &mem,
		Disks:    []*diskio.Disk{disk},
		Links:    []*netsim.Link{link},
		Progress: prog.Percent,
	})
	c.Start()
	f, _ := disk.Create("f")
	f.Write(make([]byte, 1<<20))
	f.Close()
	link.Transfer(1<<20, 0, 0)
	mem.Add(512)
	busy.Add(5 * time.Millisecond)
	prog.FinishO()
	time.Sleep(60 * time.Millisecond)
	samples := c.Stop()
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	var sawDisk, sawNet, sawMem, sawProg bool
	for _, s := range samples {
		if s.DiskWriteBps > 0 {
			sawDisk = true
		}
		if s.NetBps > 0 {
			sawNet = true
		}
		if s.MemoryBytes == 512 {
			sawMem = true
		}
		if s.ProgressO == 100 {
			sawProg = true
		}
		if s.CPUPercent < 0 || s.CPUPercent > 100 {
			t.Errorf("cpu out of range: %v", s.CPUPercent)
		}
	}
	if !sawDisk || !sawNet || !sawMem || !sawProg {
		t.Errorf("missing signals: disk=%v net=%v mem=%v prog=%v", sawDisk, sawNet, sawMem, sawProg)
	}
}

func TestCollectorStopIdempotentSafe(t *testing.T) {
	c := NewCollector(Config{Interval: 5 * time.Millisecond})
	c.Start()
	time.Sleep(12 * time.Millisecond)
	s1 := c.Stop()
	if len(s1) == 0 {
		t.Error("no samples collected")
	}
}

// Concurrent Stop calls used to race on close(c.stop): both goroutines
// could take the not-yet-closed branch and the second close panicked.
func TestCollectorConcurrentStop(t *testing.T) {
	c := NewCollector(Config{Interval: 2 * time.Millisecond})
	c.Start()
	time.Sleep(6 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s := c.Stop(); s == nil {
				t.Error("Stop returned nil series")
			}
		}()
	}
	wg.Wait()
}

// A collection shorter than one interval must still yield a sample: Stop
// records the final partial interval (a phase of a job faster than the
// 10 ms tick used to leave Fig. 13(b) without rows).
func TestCollectorStopRecordsTail(t *testing.T) {
	var busy BusyTracker
	c := NewCollector(Config{Interval: time.Hour, Cores: 1, Busy: &busy})
	c.Start()
	busy.Add(time.Millisecond)
	samples := c.Stop()
	if len(samples) != 1 {
		t.Fatalf("Start-then-Stop yielded %d samples, want 1", len(samples))
	}
	if samples[0].CPUPercent <= 0 {
		t.Errorf("tail sample missed the busy time: %+v", samples[0])
	}
}

// A short tail after a tick is dropped rather than recorded as a spike:
// every sample after the first covers at least half an interval.
func TestCollectorDropsShortTail(t *testing.T) {
	const iv = 20 * time.Millisecond
	c := NewCollector(Config{Interval: iv, Cores: 1})
	c.Start()
	time.Sleep(iv + iv/4)
	samples := c.Stop()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i := 1; i < len(samples); i++ {
		if dt := samples[i].T - samples[i-1].T; dt < iv/2 {
			t.Errorf("sample %d covers %v, want >= %v", i, dt, iv/2)
		}
	}
}

func TestCollectorStartStopRace(t *testing.T) {
	// Stop racing the very first tick must neither panic nor deadlock.
	for i := 0; i < 50; i++ {
		c := NewCollector(Config{Interval: time.Millisecond})
		c.Start()
		go c.Stop()
		c.Stop()
	}
}

func TestBusyTrackerConcurrentTrack(t *testing.T) {
	var b BusyTracker
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				end := b.Track()
				b.Add(time.Microsecond)
				end()
			}
		}()
	}
	wg.Wait()
	if got := b.Total(); got < workers*100*time.Microsecond {
		t.Errorf("busy = %v, want >= %v", got, workers*100*time.Microsecond)
	}
}

func TestPhaseProgressTotalsBeforeFinish(t *testing.T) {
	var p PhaseProgress
	// Tasks finishing before totals are declared must not report progress…
	p.FinishO()
	p.FinishA()
	if o, a := p.Percent(); o != 0 || a != 0 {
		t.Errorf("before totals: %v %v, want 0 0", o, a)
	}
	// …and once totals arrive, progress is clamped to 100 even if more
	// tasks finished than were declared.
	p.SetTotals(1, 1)
	p.FinishO()
	p.FinishA()
	o, a := p.Percent()
	if o != 100 || a != 100 {
		t.Errorf("over-finished: %v %v, want 100 100", o, a)
	}
	// Raising totals mid-flight lowers the percentage again.
	p.SetTotals(4, 8)
	o, a = p.Percent()
	if o != 50 || a != 25 {
		t.Errorf("after retotal: %v %v, want 50 25", o, a)
	}
}
