package main

// Folding repetitions into medians and quartiles, printing them, the
// results file, and -compare.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// summary is one metric over the repetitions of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does, which is what the driver uses.
func summarize(unit string, raw []float64) summary {
	x := append([]float64(nil), raw...)
	sort.Float64s(x)
	n := len(x)
	q := func(i int) float64 {
		if n == 1 {
			return x[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return summary{Unit: unit, Median: q(2), Q1: q(1), Q3: q(3), N: n, Raw: raw}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// workloadResult is one workload's row set in results.json.
type workloadResult struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Untraced holds everything measured with the decorators off: the
	// end-to-end metrics and the per-layer ones that need no decorator.
	Untraced map[string]summary `json:"untraced"`
	// Traced holds the per-layer metrics of the traced repetition.
	Traced map[string]summary `json:"traced,omitempty"`
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// fold summarizes the repetitions and runs the checks that span them:
// every exact value must agree across all repetitions, traced included.
func fold(w *workloadSpec, untraced []*repResult, traced *repResult) *workloadResult {
	wr := &workloadResult{Name: w.name, Why: w.why, Untraced: make(map[string]summary)}
	raw := make(map[string][]float64)
	var walls []float64
	for _, rep := range untraced {
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		wr.Problems = append(wr.Problems, rep.Problems...)
		walls = append(walls, rep.WallS)
		for name, v := range rep.Metrics {
			raw[name] = append(raw[name], v)
		}
	}
	for name, vals := range raw {
		wr.Untraced[name] = summarize(unitOf(name), vals)
	}
	if traced != nil {
		wr.Problems = append(wr.Problems, traced.Problems...)
		wall := summarize("s", walls).Median
		traced.Metrics["bench.trace_overhead_share"] = (traced.WallS - wall) / wall
		wr.Traced = make(map[string]summary)
		for name, v := range traced.Metrics {
			wr.Traced[name] = summarize(unitOf(name), []float64{v})
		}
	}
	if w.deterministic {
		for _, m := range perLayer {
			if !m.exact {
				continue
			}
			vals := raw[m.name]
			if traced != nil {
				if v, ok := traced.Metrics[m.name]; ok {
					vals = append(vals[:len(vals):len(vals)], v)
				}
			}
			for _, v := range vals {
				if v != vals[0] {
					wr.Problems = append(wr.Problems,
						fmt.Sprintf("%s differs between repetitions of one seed: %v", m.name, vals))
					break
				}
			}
		}
	}
	return wr
}

func (wr *workloadResult) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n%s — %s\n", wr.Name, wr.Why)
	fmt.Fprintf(w, "  attempted %d, failed %d\n", wr.Attempted, wr.Failed)
	row := func(name string, s summary) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, m := range endToEnd {
		if s, ok := wr.Untraced[m.name]; ok {
			row(m.name, s)
		}
	}
	fmt.Fprintln(w, "  measured without decorators:")
	for _, m := range perLayer {
		if s, ok := wr.Untraced[m.name]; ok {
			row(m.name, s)
		}
	}
	if traced {
		fmt.Fprintln(w, "  traced repetition:")
		for _, m := range perLayer {
			if s, ok := wr.Traced[m.name]; ok {
				row(m.name, s)
			}
		}
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// driverLine prints the one-line JSON result the driver reads: every
// end-to-end metric of an untraced run, or every per-layer metric of a
// traced one (0 where the workload does not exercise the layer).
func (wr *workloadResult) driverLine(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(wr.Problems) == 0 && wr.Failed == 0,
		Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]value),
	}
	specs, from := endToEnd, wr.Untraced
	if traced {
		specs, from = perLayer, wr.Traced
	}
	for _, m := range specs {
		line.Metrics[m.name] = value{Value: from[m.name].Median, Unit: m.unit}
	}
	return json.NewEncoder(w).Encode(&line)
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Reps       int               `json:"reps"`
	Seconds    float64           `json:"seconds"`
	Scale      string            `json:"scale"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newResultsFile(o options) *resultsFile {
	rf := &resultsFile{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Scale: o.scale.name,
	}
	// The toolchain stamps the revision when it builds inside a git
	// work tree; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rf.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		rf.Commit += modified
	}
	return rf
}

func (rf *resultsFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their quartiles, how much worse b is than a as a share of a, the
// bound, and a verdict: unresolved when either side's own spread is
// wider than the bound, worse when b is beyond it, ok otherwise. With
// equal seeds a changed exact value is reported as a changed simulated
// schedule. Any verdict but ok is an error.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wa.Name)
		if wa.Failed+wb.Failed > 0 || len(wa.Problems)+len(wb.Problems) > 0 {
			fmt.Fprintf(w, "  failed operations or output checks: a %d/%d, b %d/%d\n",
				wa.Failed, len(wa.Problems), wb.Failed, len(wb.Problems))
			bad++
		}
		for _, m := range endToEnd {
			sa, sb := wa.Untraced[m.name], wb.Untraced[m.name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if !m.lower {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa.spread() > m.bound || sb.spread() > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "  %-16s a %.6g [%.6g, %.6g]  b %.6g [%.6g, %.6g] %s  b worse by %+.2f%% of %.6g  bound %.0f%%  => %s\n",
				m.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.unit,
				100*worse, sa.Median, 100*m.bound, verdict)
		}
		if spec := findWorkload(wa.Name); a.Seed != b.Seed || a.Scale != b.Scale || spec == nil || !spec.deterministic {
			continue
		}
		for _, m := range perLayer {
			sa, sb := wa.Untraced[m.name], wb.Untraced[m.name]
			if m.exact && sa.N > 0 && sb.N > 0 && sa.Median != sb.Median {
				fmt.Fprintf(w, "  simulated schedule changed: %s %v -> %v\n", m.name, sa.Median, sb.Median)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparison(s) not ok", bad)
	}
	return nil
}
