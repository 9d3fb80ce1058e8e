package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"datampi"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// These tests start no workload: they hold the arithmetic the numbers
// rest on, the generators' determinism, the oracles' eyesight, and the
// agreement between the metric registry and BENCHMARK.json.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 75); got != 7 {
		t.Errorf("p75 = %v, want 7", got)
	}
	if got := percentile(xs, 90); !near(got, 8.2) {
		t.Errorf("p90 = %v, want 8.2 (interpolated)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {49, 75}, {50, 80}, {99, 80},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The fixed tails the workloads report must be supported by the sample
	// counts the reference box reaches in one window.
	if highestPercentile(40) < tailBatch {
		t.Errorf("p%v needs more than 40 jobs", tailBatch)
	}
	if highestPercentile(200) < tailStream {
		t.Errorf("p%v needs more than 200 windows", tailStream)
	}
}

func TestBoundHonoursDirection(t *testing.T) {
	for _, c := range []struct {
		base, cand, bound float64
		higher, ok        bool
	}{
		{100, 109, 0.10, false, true},  // lower is better, 9 % slower
		{100, 111, 0.10, false, false}, // 11 % slower
		{100, 50, 0.10, false, true},   // faster is never a regression
		{100, 91, 0.10, true, true},    // higher is better, 9 % less
		{100, 89, 0.10, true, false},   // 11 % less
		{100, 200, 0.10, true, true},   // more is never a regression
	} {
		if got := withinBound(c.base, c.cand, c.bound, c.higher); got != c.ok {
			t.Errorf("withinBound(%v, %v, %v, higher=%v) = %v, want %v", c.base, c.cand, c.bound, c.higher, got, c.ok)
		}
	}
	if got := worseBy(200, 150, true); !near(got, 0.25) {
		t.Errorf("worseBy higher-is-better = %v, want 0.25", got)
	}
	if got := worseBy(200, 150, false); !near(got, -0.25) {
		t.Errorf("worseBy lower-is-better = %v, want -0.25", got)
	}
}

// The yardstick is a ruler: the same work whoever builds it, and a
// calibration that follows the passes around an operation but not one
// doubled pass among them.
func TestYardstickCalibration(t *testing.T) {
	a, b := newYardstick(), newYardstick()
	if a.sum != b.sum {
		t.Errorf("two yardsticks differ: %x vs %x", a.sum, b.sum)
	}
	if i := a.pace(); i != 0 || a.bad != 0 || len(a.passMS) != 1 || a.passMS[0] <= 0 {
		t.Errorf("first pass: index %d, %d bad, times %v", i, a.bad, a.passMS)
	}
	a.sum++
	a.pace()
	out := &runResult{}
	a.account(out)
	if out.Attempted != 1 || out.Failed != 1 || out.YardN != 2 {
		t.Errorf("a pass with another result must fail one operation: %+v", out)
	}

	slow := 2 * yardNominalMS // the box at half speed
	y := &yardstick{passMS: []float64{yardNominalMS, slow, slow, 2 * slow, slow, yardNominalMS}}
	for _, c := range []struct {
		i         int
		raw, want float64
	}{
		{2, 300, 150}, // passes 1..4: the doubled one is outvoted
		{0, 300, 150}, // left edge: passes 0..2 = nominal slow slow
		{4, 300, 150}, // right edge: passes 3..5 = doubled slow nominal
		{5, 300, 200}, // last pass: passes 4..5 = slow nominal, their mean
	} {
		if got := y.calibrate(c.raw, c.i); !near(got, c.want) {
			t.Errorf("calibrate(%v, %d) = %v, want %v", c.raw, c.i, got, c.want)
		}
	}
	// At nominal speed a calibrated time is the raw time.
	if got := (&yardstick{passMS: []float64{yardNominalMS, yardNominalMS}}).calibrate(123, 0); !near(got, 123) {
		t.Errorf("calibrate at nominal speed = %v, want 123", got)
	}
}

// phaseWith builds a paced phase of n good windows.
func phaseWith(n int) *phaseResult {
	return &phaseResult{
		rate: streamPacedEv, planned: time.Second, emitSpan: time.Second,
		windows: n, lateMS: []float64{0.1, 0.2, 0.3},
		res: &datampi.Result{RuntimeCounters: map[string]int64{"stream.events.in": 7, "stream.events.out": 7}},
	}
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	newOut := func() *runResult { return &runResult{Metrics: map[string]metricValue{}} }

	p, out := phaseWith(40), newOut()
	p.account(out, "ok")
	if out.Attempted != 40 || out.Failed != 0 {
		t.Errorf("clean phase: attempted %d failed %d, want 40 and 0", out.Attempted, out.Failed)
	}

	// The generator fell behind: 1 s of schedule took 1.25 s to emit.
	p, out = phaseWith(40), newOut()
	p.emitSpan = 1250 * time.Millisecond
	if got := p.delivered(); !near(got, 0.8) {
		t.Errorf("delivered = %v, want 0.8", got)
	}
	p.account(out, "slow")
	if out.Failed != 40 {
		t.Errorf("undelivered phase failed %d windows, want all 40", out.Failed)
	}

	// Finishing early or on time is full delivery, never more.
	p = phaseWith(1)
	p.emitSpan = 900 * time.Millisecond
	if got := p.delivered(); got != 1 {
		t.Errorf("delivered = %v, want 1", got)
	}

	// A late generator voids the phase even if everything arrived.
	p, out = phaseWith(40), newOut()
	p.lateMS = []float64{lateLimitMS * 2, lateLimitMS * 2, lateLimitMS * 2}
	p.account(out, "late")
	if out.Failed != 40 {
		t.Errorf("late generator failed %d windows, want all 40", out.Failed)
	}

	// Otherwise only the windows the oracle rejected fail.
	p, out = phaseWith(40), newOut()
	p.badWins = 3
	p.account(out, "miscounted")
	if out.Failed != 3 {
		t.Errorf("failed %d, want 3", out.Failed)
	}

	// Saturation has no schedule to be late against.
	p, out = phaseWith(10), newOut()
	p.rate, p.emitSpan = 0, time.Hour
	p.account(out, "saturation")
	if out.Failed != 0 {
		t.Errorf("saturation phase failed %d windows, want 0", out.Failed)
	}

	// Lost events show as an in/out imbalance.
	p, out = phaseWith(10), newOut()
	p.res.RuntimeCounters["stream.events.out"] = 6
	p.account(out, "lossy")
	if out.Failed != 1 {
		t.Errorf("in/out imbalance failed %d, want 1", out.Failed)
	}
}

func TestStreamOracle(t *testing.T) {
	const nWin = 5 // windows 0..2 hold events; planned = 3 windows
	part := func(k int) int { return kv.DefaultPartition(streamKeyTable[k], nil, streamParts) }
	// Two keys that land on different partitions.
	ka, kb := 0, 1
	for part(kb) == part(ka) {
		kb++
	}
	offered := func() [][][streamKeys]int32 {
		e := make([][][streamKeys]int32, streamSources)
		for s := range e {
			e[s] = make([][streamKeys]int32, nWin)
			for w := 0; w < 3; w++ {
				e[s][w][ka], e[s][w][kb] = 2, 1
			}
		}
		return e
	}
	fire := func(k int, w int, n int32) firedWin {
		f := firedWin{start: eventEpoch.UnixNano() + int64(w)*int64(streamWindow), latMS: 4}
		f.counts[k] = n
		return f
	}
	good := func() [][]firedWin {
		f := make([][]firedWin, streamParts)
		for w := 0; w < 3; w++ {
			f[part(ka)] = append(f[part(ka)], fire(ka, w, 4))
			f[part(kb)] = append(f[part(kb)], fire(kb, w, 2))
		}
		return f
	}
	run := func(fired [][]firedWin) *phaseResult {
		p := &phaseResult{planned: 3 * streamWindow}
		p.check(nWin, offered(), fired)
		return p
	}

	p := run(good())
	if p.windows != 6 || p.badWins != 0 {
		t.Errorf("exact firing: %d windows %d bad, want 6 and 0", p.windows, p.badWins)
	}
	// First and last window are trimmed from the latency sample: 1 of 3 per partition stays.
	if len(p.latMS) != 2 {
		t.Errorf("%d latency samples, want 2 (edges trimmed)", len(p.latMS))
	}

	dup := good()
	dup[part(ka)] = append(dup[part(ka)], fire(ka, 1, 4))
	if p := run(dup); p.badWins != 1 {
		t.Errorf("duplicate window: %d bad, want 1", p.badWins)
	}
	missing := good()
	missing[part(kb)] = missing[part(kb)][:2]
	if p := run(missing); p.badWins != 1 {
		t.Errorf("missing window: %d bad, want 1", p.badWins)
	}
	short := good()
	short[part(ka)][0].counts[ka] = 3 // one event lost
	if p := run(short); p.badWins != 1 {
		t.Errorf("lost event: %d bad, want 1", p.badWins)
	}
	stray := good()
	stray[part(ka)] = append(stray[part(ka)], fire(ka, 40, 1))
	if p := run(stray); p.badWins != 1 {
		t.Errorf("window nobody offered: %d bad, want 1", p.badWins)
	}
}

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	tera := func(seed int64) (uint64, recordSum) {
		var c checksumWriter
		sum, err := teraGen(&c, 2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c.h, sum
	}
	h1, s1 := tera(1)
	h1b, s1b := tera(1)
	h2, s2 := tera(2)
	if h1 != h1b || s1 != s1b {
		t.Error("teraGen: same seed, different input")
	}
	if h1 == h2 || s1 == s2 {
		t.Error("teraGen: another seed, same input")
	}
	if s1.n != 2000 {
		t.Errorf("teraGen checksum covers %d records, want 2000", s1.n)
	}

	text := func(seed int64) (uint64, map[string]uint64) {
		var c checksumWriter
		ref, err := textGen(&c, 500, wcWordsLine, wcVocab, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c.h, ref
	}
	t1, r1 := text(1)
	t1b, r1b := text(1)
	t2, _ := text(2)
	if t1 != t1b || !reflect.DeepEqual(r1, r1b) {
		t.Error("textGen: same seed, different input")
	}
	if t1 == t2 {
		t.Error("textGen: another seed, same input")
	}
	var words uint64
	for _, c := range r1 {
		words += c
	}
	if words != 500*wcWordsLine {
		t.Errorf("textGen reference counts %d words, want %d", words, 500*wcWordsLine)
	}

	keys := func(seed int64, source int) []int {
		ks := make([]int, 256)
		for i := range ks {
			ks[i] = streamKeyOf(seed, source, i)
			if ks[i] < 0 || ks[i] >= streamKeys {
				t.Fatalf("streamKeyOf out of range: %d", ks[i])
			}
		}
		return ks
	}
	if !reflect.DeepEqual(keys(1, 0), keys(1, 0)) {
		t.Error("streamKeyOf: same seed, different keys")
	}
	if reflect.DeepEqual(keys(1, 0), keys(2, 0)) || reflect.DeepEqual(keys(1, 0), keys(1, 1)) {
		t.Error("streamKeyOf: another seed or source, same keys")
	}
}

func TestOraclesRejectWrongOutput(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	env, err := newBenchEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()

	var in bytes.Buffer
	want, err := teraGen(&in, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]byte, 0, 300)
	for off := 0; off < in.Len(); off += teraRecordSize {
		rows = append(rows, in.Bytes()[off:off+teraRecordSize])
	}
	writeParts := func(rows [][]byte) {
		for part := 0; part < 2; part++ {
			w, err := env.fs.Create(partName(teraOutput, part), -1)
			if err != nil {
				t.Fatal(err)
			}
			kw := kv.NewWriter(w)
			for _, r := range rows[part*len(rows)/2 : (part+1)*len(rows)/2] {
				if err := kw.Write(kv.Record{Key: r[:teraKeySize], Value: r[teraKeySize:]}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeParts(rows) // generation order: not sorted
	if _, err := verifyTeraSort(env.fs, teraOutput, want); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Errorf("unsorted output accepted: %v", err)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i][:teraKeySize], rows[j][:teraKeySize]) < 0 })
	writeParts(rows)
	clean, err := verifyTeraSort(env.fs, teraOutput, want)
	if err != nil {
		t.Errorf("sorted output rejected: %v", err)
	}
	writeParts(rows[:len(rows)-2]) // two records lost
	if _, err := verifyTeraSort(env.fs, teraOutput, want); err == nil {
		t.Error("output with lost records accepted")
	}
	writeParts(rows)
	again, err := verifyTeraSort(env.fs, teraOutput, want)
	if err != nil || !clean.equal(again) {
		t.Errorf("identical outputs: digests differ (err %v)", err)
	}

	ref := map[string]uint64{"a": 3, "b": 1}
	writeCounts := func(m map[string]uint64) {
		w, err := env.fs.Create(partName(wcOutput, 0), -1)
		if err != nil {
			t.Fatal(err)
		}
		kw := kv.NewWriter(w)
		for k, c := range m {
			if err := kw.Write(kv.Record{Key: []byte(k), Value: u64(c)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeCounts(ref)
	if err := verifyWordCount(env.fs, wcOutput, ref); err != nil {
		t.Errorf("correct counts rejected: %v", err)
	}
	writeCounts(map[string]uint64{"a": 2, "b": 1})
	if err := verifyWordCount(env.fs, wcOutput, ref); err == nil {
		t.Error("wrong count accepted")
	}
	writeCounts(map[string]uint64{"a": 3})
	if err := verifyWordCount(env.fs, wcOutput, ref); err == nil {
		t.Error("missing word accepted")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	span := func(name string, id, parent, ts, dur int64) trace.Event {
		return trace.Event{Name: name, Ph: "X", PID: harnessPID, TS: ts, Dur: dur,
			Args: map[string]any{"id": id, "parent": parent, "workload": "w"}}
	}
	evs := []trace.Event{
		span("bench.setup", 1, 0, 0, 1000),
		span("bench.gen", 2, 1, 100, 300),                    // covers 100..400
		span("bench.job", 3, 1, 300, 300),                    // covers 300..600, overlapping gen
		span("bench.job", 4, 1, 900, 500),                    // runs past its parent: only 900..1000 counts
		span("bench.verify", 5, 3, 350, 50),                  // grandchild: touches bench.job only
		{Name: "prepare", Ph: "X", PID: 0, TS: 0, Dur: 5000}, // program span: not the harness's
	}
	self := selfTimesMS(evs)
	// setup: 1000 - (500 union of 100..600) - 100 = 400 us.
	if got := self["bench.setup"]; !near(got, 0.4) {
		t.Errorf("bench.setup self = %v ms, want 0.4", got)
	}
	// The two bench.job spans: (300 - 50) + 500 = 750 us.
	if got := self["bench.job"]; !near(got, 0.75) {
		t.Errorf("bench.job self = %v ms, want 0.75", got)
	}
	if _, ok := self["prepare"]; ok {
		t.Error("a program span was given a harness self time")
	}
	if got := spanBusyMS(evs)["prepare"]; !near(got, 5) {
		t.Errorf("program span busy = %v ms, want 5", got)
	}
	if _, ok := spanBusyMS(evs)["bench.job"]; ok {
		t.Error("a harness span was summed as program busy time")
	}
}

func TestRecorderStampsIdentity(t *testing.T) {
	var off *recorder
	off.begin("bench.job", nil).end() // the untraced run: all no-ops
	if off.tracer() != nil {
		t.Error("nil recorder handed out a tracer")
	}
	rec := newRecorder("terasort")
	root := rec.begin("bench.setup", nil)
	rec.begin("bench.gen", root).end()
	root.end()
	var got []trace.Event
	for _, e := range rec.tr.Events() {
		if e.Ph == "X" {
			got = append(got, e)
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d spans recorded, want 2", len(got))
	}
	byName := map[string]trace.Event{got[0].Name: got[0], got[1].Name: got[1]}
	gen, setup := byName["bench.gen"], byName["bench.setup"]
	if gen.Args["parent"] != setup.Args["id"] || setup.Args["parent"] != int64(0) {
		t.Errorf("parent ids wrong: gen %v setup %v", gen.Args, setup.Args)
	}
	if gen.Args["workload"] != "terasort" || gen.PID != harnessPID {
		t.Errorf("span identity wrong: %+v", gen)
	}
}

// metricName is the shape every printed metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkJSON mirrors BENCHMARK.json's schema exactly.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the binary's default window %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	unit := func(u string) bool {
		return len(u) > 0 && len(u) <= 16 && strings.Trim(u, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") == ""
	}
	seen := map[string]bool{}
	checkName := func(name, u, better string) {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
		if !unit(u) {
			t.Errorf("metric %s: unit %q", name, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better = %q", name, better)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the registry", len(spec.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the registry (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
		if d.Layer == "" || d.Source == "" || d.Moves == "" {
			t.Errorf("%s: the registry must name its layer, source and the metric it moves", d.Name)
		}
	}
	// Every name a traced run reports is a registered per-layer name: the
	// count and span tables may not invent one.
	for name := range countMetrics {
		if d, ok := metricDefs[name]; !ok || d.Layer == "" {
			t.Errorf("countMetrics reports %q, which is not a per-layer metric", name)
		}
	}
	for _, m := range spanMetrics {
		for _, name := range []string{m.metric, m.share} {
			if d, ok := metricDefs[name]; name != "" && (!ok || d.Layer == "") {
				t.Errorf("spanMetrics reports %q, which is not a per-layer metric", name)
			}
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	res := &runResult{Workload: "terasort", Attempted: 3, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.set(d.Name, 1.25, 3)
	}
	var buf bytes.Buffer
	if err := printResultLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line keys = %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] != 1.25 || m["unit"] != metricDefs[name].Unit {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s with no failure", line["correct"])
	}
	res.fail("one job")
	buf.Reset()
	if err := printResultLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"correct":false`) || !strings.Contains(buf.String(), `"failed":1`) {
		t.Errorf("a failed operation must show on the line: %s", buf.String())
	}
	res.set("setup_s", math.NaN(), 1)
	if err := printResultLine(&buf, res); err == nil {
		t.Error("a NaN metric was printed")
	}
}
