package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func printEnv(w io.Writer, e envInfo) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s seed=%d tmpdir=%s (%s)\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.Commit, e.Seed, e.TmpDir, e.TmpFS)
}

// printResult prints one workload's metrics by name with unit and sample
// count, then its failed operations in words.
func printResult(w io.Writer, r *runResult) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s: %s\n", r.Workload, kind)
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.4f %-6s n=%d", name, m.Value, m.Unit, m.N)
		if m.Lo != m.Hi {
			fmt.Fprintf(w, "  [%.4g .. %.4g]", m.Lo, m.Hi)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(r.SelfMS) {
		fmt.Fprintf(w, "  self: %-28s %16.3f ms\n", name, r.SelfMS[name])
	}
	for _, k := range sortedKeys(r.Work) {
		fmt.Fprintf(w, "  work: %-28s %16d\n", k, r.Work[k])
	}
	for _, k := range sortedKeys(r.Raw) {
		fmt.Fprintf(w, "  raw:  %-28s %16.4f %s\n", k, r.Raw[k], metricDefs[k].Unit)
	}
	if r.YardN > 0 {
		fmt.Fprintf(w, "  yardstick: median pass %.3f ms over %d passes (nominal %.0f ms: calibrated = raw x %.3f)\n",
			r.YardMS, r.YardN, yardNominalMS, yardNominalMS/r.YardMS)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  fail_share %.6f (%d failed of %d attempted)\n", share, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

// storeResult keeps a run beside its environment, so that two stored
// runs can be checked for comparability (same nproc, same filesystem
// behind TMPDIR) before their numbers are compared.
func storeResult(dir string, env envInfo, r *runResult) error {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	b, err := json.MarshalIndent(struct {
		Env    envInfo    `json:"env"`
		Result *runResult `json:"result"`
	}{env, r}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+r.Workload+"-"+kind+".json"), append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResultLine(w io.Writer, r *runResult) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   r.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runSelfcheck runs the untraced suite twice and compares the two sets the
// way the bounds will be applied to a later PR: per end-to-end metric and
// workload, the second value may not be worse than the first by more than
// the metric's bound. Work counts must repeat exactly. It returns the
// process exit code.
func runSelfcheck(w io.Writer, cfg runConfig) int {
	cfg.traced = false
	var sets [2][]*runResult
	for pass := range sets {
		for i := range workloads {
			res, err := runOne(&workloads[i], cfg)
			if err != nil {
				fmt.Fprintf(w, "selfcheck: pass %d: %s: %v\n", pass+1, workloads[i].name, err)
				return 1
			}
			printResult(w, res)
			sets[pass] = append(sets[pass], res)
		}
	}
	code := 0
	fmt.Fprintf(w, "\n== selfcheck: second pass against first\n")
	fmt.Fprintf(w, "  %-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			by := worseBy(x, y, d.Better == "higher")
			verdict := "ok"
			if !withinBound(x, y, d.Bound, d.Better == "higher") {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Fprintf(w, "  %-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				a.Workload, d.Name, x, y, by*100, d.Bound*100, verdict)
		}
		for k, v := range a.Work {
			if b.Work[k] != v {
				fmt.Fprintf(w, "  %-12s work count %s differs: %d vs %d\n", a.Workload, k, v, b.Work[k])
				code = 1
			}
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "  %-12s failed operations: %d and %d\n", a.Workload, a.Failed, b.Failed)
			code = 1
		}
	}
	return code
}
