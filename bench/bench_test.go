package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent under test re-execs itself for a repetition.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the tables in
// spec.go: same workloads, same metrics, same units, bounds and
// directions, and every name within the contract's syntax.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadSpecs) {
		t.Fatalf("manifest has %d workloads, spec.go %d", len(m.Workloads), len(workloadSpecs))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: manifest %q/%q, spec.go %q/%q", i, w.Name, w.Why, workloadSpecs[i].name, workloadSpecs[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better() || g.Bound != w.bound {
				t.Errorf("%s metric %d: manifest %+v, spec.go %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s metric %q (%q): name or unit outside the contract", kind, g.Name, g.Unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better: %+v", m.EndToEnd[0])
	}
}

// smoke runs every workload once untraced and once traced at 1/50 scale
// and returns the results file it wrote.
func smoke(t *testing.T) *resultsFile {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "smoke", "-reps", "1", "-trace", "1", "-out", dir}, &out); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	rf, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadSpecs {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("no span file for %s: %v", w.name, err)
		}
	}
	return rf
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	first, second := smoke(t), smoke(t)
	if len(first.Workloads) != len(workloadSpecs) {
		t.Fatalf("results hold %d workloads, want %d", len(first.Workloads), len(workloadSpecs))
	}
	emitted := make(map[string]bool)
	for i, wr := range first.Workloads {
		if wr.Failed != 0 || len(wr.Problems) != 0 || wr.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", wr.Name, wr.Attempted, wr.Failed, wr.Problems)
		}
		for _, m := range endToEnd {
			s, ok := wr.Untraced[m.name]
			if !ok || s.Unit != m.unit || !(s.Median > 0) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive finite value in %s", wr.Name, m.name, s, m.unit)
			}
		}
		for name, s := range wr.Traced {
			if unitOf(name) == "" || s.Unit != unitOf(name) {
				t.Errorf("%s: traced metric %q is not in spec.go or has unit %q", wr.Name, name, s.Unit)
			}
			if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: traced metric %s = %v", wr.Name, name, s.Median)
			}
			emitted[name] = true
		}
		// The simulated schedule is a pure function of commit and seed.
		if !workloadSpecs[i].deterministic {
			continue
		}
		for _, m := range perLayer {
			a, b := wr.Untraced[m.name], second.Workloads[i].Untraced[m.name]
			if m.exact && (a.N != b.N || a.Median != b.Median) {
				t.Errorf("%s: %s is %v in one run and %v in the next", wr.Name, m.name, a.Median, b.Median)
			}
		}
		if wr.Untraced["sim.mean_jct_slots"].N == 0 {
			t.Errorf("%s: no sim.mean_jct_slots", wr.Name)
		}
	}
	for _, m := range perLayer {
		if !emitted[m.name] {
			t.Errorf("per-layer metric %s was emitted by no workload", m.name)
		}
	}
}

// TestDriverLine checks the last line of a single-workload run against
// the driver's contract, for both values of -trace.
func TestDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		args := []string{"--workload", "replay-32", "--seed", "7", "--seconds", "0.01", "--trace", trace, "-scale", "smoke", "-out", t.TempDir()}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool  `json:"correct"`
			Attempted *int64 `json:"attempted"`
			Failed    *int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("-trace %s: %s", trace, lines[len(lines)-1])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.name]
			if !ok || got.Value == nil || got.Unit != m.unit {
				t.Errorf("-trace %s: metric %s missing or without value and unit %s", trace, m.name, m.unit)
			}
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	s := summarize("", []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", s.Q1, s.Median, s.Q3)
	}
	if s := summarize("", []float64{5}); s.Q1 != 5 || s.Median != 5 || s.Q3 != 5 {
		t.Errorf("one value: %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobsPerS []float64, jct float64) string {
		rf := &resultsFile{Seed: 42, Scale: "full", Workloads: []*workloadResult{{
			Name: "backlog-200",
			Untraced: map[string]summary{
				"jobs_per_s":         summarize("1/s", jobsPerS),
				"sim.mean_jct_slots": summarize("slots", []float64{jct}),
			},
		}}}
		path := filepath.Join(dir, name)
		if err := rf.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1001, 1002, 1003, 1004}, 167)
	for _, c := range []struct {
		name    string
		values  []float64
		jct     float64
		verdict string
	}{
		{"same.json", []float64{1001, 1002, 1003, 1000, 999}, 167, "=> ok"},
		{"slow.json", []float64{600, 601, 602, 603, 604}, 167, "=> worse"},
		{"noisy.json", []float64{600, 800, 1000, 1200, 1400}, 167, "=> unresolved"},
		{"moved.json", []float64{1000, 1001, 1002, 1003, 1004}, 168, "simulated schedule changed"},
	} {
		var out bytes.Buffer
		err := compareFiles(base, write(c.name, c.values, c.jct), &out)
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: want verdict %q in\n%s", c.name, c.verdict, out.String())
		}
		if (err == nil) != (c.verdict == "=> ok") {
			t.Errorf("%s: error %v", c.name, err)
		}
	}
}
