package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dollymp/internal/experiments"
)

func TestFigureListCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"1", "2", "4", "5-7/pagerank", "5-7/wordcount", "8", "9", "10", "11",
		"overhead", "ablations", "redundancy", "learning", "estimation", "locality", "analysis"}
	figs := experiments.All
	if len(figs) != len(want) {
		t.Fatalf("figure count: %d, want %d", len(figs), len(want))
	}
	for i, w := range want {
		if figs[i].ID != w {
			t.Errorf("figure %d: %q, want %q", i, figs[i].ID, w)
		}
	}
}

// TestRealMainTextSingleFigure holds -fig to one id, or to the ids of
// one group: -fig 1 must not also run Figures 10 and 11.
func TestRealMainTextSingleFigure(t *testing.T) {
	for _, c := range []struct {
		fig, want string
		headers   int
	}{
		{"2", "46", 1},
		{"1", "=== Figure 1 —", 1},
		{"5-7", "=== Figure 5-7/wordcount", 2},
	} {
		var buf bytes.Buffer
		if err := realMain("quick", c.fig, "text", &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if n := strings.Count(out, "=== Figure"); n != c.headers || !strings.Contains(out, c.want) {
			t.Errorf("-fig %s: %d headers, want %d and %q:\n%s", c.fig, n, c.headers, c.want, out)
		}
	}
}

func TestRealMainJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain("quick", "2", "json", &buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]struct {
		Tetris  float64
		DollyMP float64
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["2"].Tetris != 46 || decoded["2"].DollyMP != 28 {
		t.Fatalf("values: %+v", decoded)
	}
}

func TestRealMainErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain("huge", "", "text", &buf); err == nil {
		t.Error("bad scale accepted")
	}
	for _, fig := range []string{"nosuch", "5-", "overhead/"} {
		if err := realMain("quick", fig, "text", &buf); err == nil {
			t.Errorf("unknown figure %q accepted", fig)
		}
	}
	if err := realMain("quick", "2", "xml", &buf); err == nil {
		t.Error("bad format accepted")
	}
}

func tinySweepOpts(t *testing.T, workers int) sweepOptions {
	t.Helper()
	return sweepOptions{
		scale:      "quick",
		schedulers: "tetris,dollymp2",
		seeds:      2,
		loads:      "0.5",
		jobs:       10,
		fleet:      60,
		workers:    workers,
		out:        t.TempDir() + "/BENCH_sweep.json",
	}
}

func readSweepReport(t *testing.T, path string) sweepReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r sweepReport
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	return r
}

func TestSweepModeWritesReport(t *testing.T) {
	opts := tinySweepOpts(t, 2)
	var buf bytes.Buffer
	if err := runSweepMode(opts, &buf); err != nil {
		t.Fatal(err)
	}
	r := readSweepReport(t, opts.out)
	if r.Schema != "dollymp-bench-sweep/v1" {
		t.Errorf("schema: %q", r.Schema)
	}
	if len(r.Cells) != 4 || len(r.Aggregates) != 2 {
		t.Fatalf("cells/aggregates: %d/%d", len(r.Cells), len(r.Aggregates))
	}
	if r.WallTimeNs <= 0 {
		t.Error("missing wall time")
	}
	for _, c := range r.Cells {
		if c.Jobs != 10 || c.MeanJCT <= 0 {
			t.Errorf("cell %+v incomplete", c)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "mean JCT") || !strings.Contains(out, "wrote "+opts.out) {
		t.Errorf("summary output:\n%s", out)
	}
}

// TestSweepModeAggregatesIdenticalAcrossWorkers is the CLI half of the
// determinism acceptance: the JSON aggregates must be bit-identical for
// -workers 1 and -workers 3.
func TestSweepModeAggregatesIdenticalAcrossWorkers(t *testing.T) {
	var reports []sweepReport
	for _, w := range []int{1, 3} {
		opts := tinySweepOpts(t, w)
		var buf bytes.Buffer
		if err := runSweepMode(opts, &buf); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, readSweepReport(t, opts.out))
	}
	a, err := json.Marshal(reports[0].Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reports[1].Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("aggregates differ across worker counts:\n%s\nvs\n%s", a, b)
	}
}

func TestSweepModeErrors(t *testing.T) {
	var buf bytes.Buffer
	opts := tinySweepOpts(t, 1)
	opts.scale = "huge"
	if err := runSweepMode(opts, &buf); err == nil {
		t.Error("bad scale accepted")
	}
	opts = tinySweepOpts(t, 1)
	opts.schedulers = "nosuch"
	if err := runSweepMode(opts, &buf); err == nil {
		t.Error("unknown scheduler accepted")
	}
	opts = tinySweepOpts(t, 1)
	opts.loads = "fast"
	if err := runSweepMode(opts, &buf); err == nil {
		t.Error("bad load list accepted")
	}
}

func TestSweepProfiles(t *testing.T) {
	opts := tinySweepOpts(t, 2)
	dir := t.TempDir()
	opts.cpuprofile = dir + "/cpu.pprof"
	opts.memprofile = dir + "/mem.pprof"
	var buf bytes.Buffer
	if err := runSweepMode(opts, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{opts.cpuprofile, opts.memprofile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestGroupWrite(t *testing.T) {
	var buf bytes.Buffer
	g := experiments.Group{}
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedSweepReproduces runs the default grid (`make sweep`: 3
// schedulers × 8 seeds at quick scale) and holds every deterministic
// cell field against the committed BENCH_sweep.json, which CI's
// sweep-smoke regenerates without ever comparing.
func TestCommittedSweepReproduces(t *testing.T) {
	opts := sweepOptions{scale: "quick", out: t.TempDir() + "/BENCH_sweep.json"}
	var buf bytes.Buffer
	if err := runSweepMode(opts, &buf); err != nil {
		t.Fatal(err)
	}
	got, want := readSweepReport(t, opts.out), readSweepReport(t, "../../BENCH_sweep.json")
	if len(got.Cells) != len(want.Cells) || len(want.Cells) == 0 {
		t.Fatalf("%d cells, committed %d", len(got.Cells), len(want.Cells))
	}
	for i, g := range got.Cells {
		w := want.Cells[i]
		g.SchedWallNs, w.SchedWallNs = 0, 0 // the one measured field
		if g != w {
			t.Errorf("cell %d:\n got       %+v\n committed %+v", i, g, w)
		}
	}
}

// TestQuickSuiteDigest pins every figure's quick-scale JSON output: the
// SHA-256 of the whole -format json document, re-encoded with the
// overhead entry's two wall-clock timings zeroed (they are the only
// measured values). Any change to a workload, a scheduler or an
// experiment's parameters moves it; a refactor must not.
func TestQuickSuiteDigest(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain("quick", "", "json", &buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var doc map[string]interface{}
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	overhead, ok := doc["overhead"].(map[string]interface{})
	if !ok {
		t.Fatalf("no overhead entry in %v", doc)
	}
	overhead["PriorityTime"], overhead["DecisionTime"] = 0, 0
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4d7deca7e0eefb3083c2e08df816b242f87a1576936737f26faf12d81900f5ea"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Fatalf("quick suite digest %s, want %s", got, want)
	}
}
