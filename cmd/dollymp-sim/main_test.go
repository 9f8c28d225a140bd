package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dollymp"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

func TestRealMainWorkloads(t *testing.T) {
	cases := []struct {
		name string
		wl   string
	}{
		{"mixed", "mixed"},
		{"google", "google"},
		{"pagerank", "pagerank"},
		{"wordcount", "wordcount"},
		{"terasort", "terasort"},
		{"mliter", "mliter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := realMain("dollymp2", c.wl, 6, 5, "testbed30", 1, "", false, false, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRealMainJSONAndLargeFleet(t *testing.T) {
	if err := realMain("tetris", "google", 6, 3, "50", 1, "", true, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRealMainTraceReplay(t *testing.T) {
	path, _ := writeBoth(t, dollymp.MixedWorkload(4, 5, 2))
	if err := realMain("capacity", "", 0, 0, "testbed30", 1, path, false, false, true); err != nil {
		t.Fatal(err)
	}
}

// writeBoth writes the same jobs as a JSON envelope and as a framed
// stream and returns the two paths.
func writeBoth(t *testing.T, jobs []*dollymp.Job) (envelope, stream string) {
	t.Helper()
	dir := t.TempDir()
	envelope, stream = filepath.Join(dir, "jobs.json"), filepath.Join(dir, "jobs.trace")
	f, err := os.Create(envelope)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, jobs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := trace.CreateStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := w.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return envelope, stream
}

// TestStreamReplayMatchesEnvelope: -trace runs the same jobs to the same
// schedule whichever format holds them; the stream leaves a digest in
// place of per-job records.
func TestStreamReplayMatchesEnvelope(t *testing.T) {
	envelope, stream := writeBoth(t, dollymp.GoogleWorkload(300, 2, 7))
	batch, err := simulate("dollymp2", "", 0, 0, "32", 1, envelope, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := simulate("dollymp2", "", 0, 0, "32", 1, stream, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != 300 || len(batch.Jobs) != 300 || batch.Digest != nil {
		t.Fatalf("envelope run: %d completed, %d records, digest %v", batch.Completed, len(batch.Jobs), batch.Digest)
	}
	if len(replay.Jobs) != 0 || replay.Digest == nil {
		t.Fatalf("stream replay kept %d per-job records, digest %v", len(replay.Jobs), replay.Digest)
	}
	if replay.Completed != batch.Completed || replay.Makespan != batch.Makespan ||
		replay.TotalFlowtime() != batch.TotalFlowtime() || replay.SchedCalls != batch.SchedCalls {
		t.Fatalf("stream replay: %d completed, makespan %d, flowtime %d, %d Schedule calls; envelope run: %d, %d, %d, %d",
			replay.Completed, replay.Makespan, replay.TotalFlowtime(), replay.SchedCalls,
			batch.Completed, batch.Makespan, batch.TotalFlowtime(), batch.SchedCalls)
	}
	// Both report shapes print.
	if err := realMain("dollymp2", "", 0, 0, "32", 1, stream, false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := realMain("dollymp2", "", 0, 0, "32", 1, stream, true, false, false); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineBounded: -timeline on a stream replay spanning more than
// 10 000 slots holds at most maxSamples points, and each is the state
// the engine itself held at that slot, read off it by a second observer
// on the batch run of the same jobs.
func TestTimelineBounded(t *testing.T) {
	jobs := dollymp.GoogleWorkload(2000, 8, 7)
	_, stream := writeBoth(t, jobs)
	tl := &sampler{every: 1}
	res, err := simulate("dollymp2", "", 0, 0, "32", 1, stream, false, tl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 10_000 || tl.advances <= 10*maxSamples || len(tl.points) == 0 || len(tl.points) > maxSamples {
		t.Fatalf("makespan %d, %d advances: %d points kept, want 1..%d", res.Makespan, tl.advances, len(tl.points), maxSamples)
	}
	want := make(map[int64]timelinePoint, len(tl.points))
	for _, p := range tl.points {
		want[p.Slot] = p
	}
	fleet, err := dollymp.NewFleet("32", 1)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := dollymp.NewScheduler(dollymp.KindDollyMP2)
	if err != nil {
		t.Fatal(err)
	}
	var e *sim.Engine
	checked := 0
	e, err = sim.New(sim.Config{Cluster: fleet, Jobs: jobs, Scheduler: policy, Seed: 1, Observe: func(o *sim.Observation) {
		p, ok := want[o.Slot]
		if o.Kind != sim.TraceAdvance || !ok {
			return
		}
		running := 0
		for _, js := range e.Jobs() {
			for k := range js.Job.Phases {
				for l := 0; l < js.Job.Phases[k].Tasks; l++ {
					running += js.LiveCopies(workload.PhaseID(k), l)
				}
			}
		}
		used, total := fleet.TotalUsed(), fleet.Total()
		got := timelinePoint{o.Slot, len(e.Jobs()), running,
			float64(used.CPUMilli) / float64(total.CPUMilli), float64(used.MemMiB) / float64(total.MemMiB)}
		if got != p {
			t.Fatalf("slot %d: the engine holds %+v, -timeline kept %+v", o.Slot, got, p)
		}
		checked++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if checked != len(tl.points) {
		t.Fatalf("checked %d of %d points", checked, len(tl.points))
	}
}

// TestStreamReplaySurfacesCorruption cuts a stream mid frame: the replay
// must fail with the typed positional error, not a bare decode error or
// a short but successful run.
func TestStreamReplaySurfacesCorruption(t *testing.T) {
	_, stream := writeBoth(t, dollymp.GoogleWorkload(200, 2, 7))
	b, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stream, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = simulate("dollymp2", "", 0, 0, "32", 1, stream, false, nil)
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("torn stream must surface *trace.CorruptError, got %v", err)
	}
	if ce.Offset <= 0 || ce.Frame < 0 {
		t.Fatalf("corrupt error lacks position: %+v", ce)
	}
}

func TestRealMainErrors(t *testing.T) {
	if err := realMain("nosuch", "mixed", 4, 5, "testbed30", 1, "", false, false, false); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := realMain("dollymp2", "nosuch", 4, 5, "testbed30", 1, "", false, false, false); err == nil {
		t.Error("unknown workload accepted")
	}
	// "30abc" and "12 34" used to build 30 and 12 servers.
	for _, fleet := range []string{"zero", "-3", "0", "", "30abc", "12 34", "testbed30 "} {
		if err := realMain("dollymp2", "mixed", 4, 5, fleet, 1, "", false, false, false); err == nil || !strings.Contains(err.Error(), "invalid fleet") {
			t.Errorf("fleet %q: %v, want the invalid-fleet error", fleet, err)
		}
	}
	if err := realMain("dollymp2", "", 0, 0, "testbed30", 1, "/nonexistent/trace.json", false, false, false); err == nil {
		t.Error("missing trace accepted")
	}
	// Anything without the stream magic is read as an envelope, so junk
	// fails with the JSON decoder's positional error.
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("dollymp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain("dollymp2", "", 0, 0, "testbed30", 1, junk, false, false, false); err == nil || !strings.Contains(err.Error(), "malformed JSON") {
		t.Errorf("junk trace: %v", err)
	}
}

func TestRunScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := &dollymp.Scenario{
		Version: 1,
		Name:    "cli-test",
		Fleet:   dollymp.FleetSpecs(dollymp.Testbed30()),
		Jobs:    dollymp.MixedWorkload(4, 5, 2),
		Seed:    3,
	}
	if err := sc.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runScenario(path, "dollymp2", false); err != nil {
		t.Fatal(err)
	}
	if err := runScenario(path, "nosuch", false); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := runScenario(filepath.Join(dir, "missing.json"), "dollymp2", false); err == nil {
		t.Error("missing file accepted")
	}
}
