package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

func TestWordCountShape(t *testing.T) {
	j := WordCount(1, 100, 10, stats.NewRNG(1))
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Phases) != 2 {
		t.Fatalf("phases: %d", len(j.Phases))
	}
	if j.Phases[0].Name != "map" || j.Phases[1].Name != "reduce" {
		t.Fatal("phase names")
	}
	if j.Phases[0].Tasks != 80 { // 10 GB / 128 MB
		t.Errorf("map tasks: %d", j.Phases[0].Tasks)
	}
	if j.Phases[1].Tasks != 20 {
		t.Errorf("reduce tasks: %d", j.Phases[1].Tasks)
	}
	if j.Arrival != 100 || j.App != "wordcount" {
		t.Error("metadata")
	}
	// Tiny input still yields at least one task.
	small := WordCount(2, 0, 0.01, stats.NewRNG(2))
	if small.Phases[0].Tasks < 1 || small.Phases[1].Tasks < 1 {
		t.Error("tiny input must have >=1 task per phase")
	}
}

func TestPageRankShape(t *testing.T) {
	j := PageRank(1, 0, 10, stats.NewRNG(3))
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Phases) != 5 { // init + 3 iters + finalize
		t.Fatalf("phases: %d", len(j.Phases))
	}
	// Sequential chain: each later phase depends on the previous.
	for k := 1; k < len(j.Phases); k++ {
		if len(j.Phases[k].Parents) != 1 || int(j.Phases[k].Parents[0]) != k-1 {
			t.Fatalf("phase %d parents: %v", k, j.Phases[k].Parents)
		}
	}
}

func TestMixedDeploymentComposition(t *testing.T) {
	jobs := MixedDeployment(100, Arrival{Kind: FixedInterval, MeanGap: 40}, 7)
	if len(jobs) != 100 {
		t.Fatalf("jobs: %d", len(jobs))
	}
	wc, pr := 0, 0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		switch j.App {
		case "wordcount":
			wc++
		case "pagerank":
			pr++
		default:
			t.Fatalf("unknown app %q", j.App)
		}
	}
	if wc != 50 || pr != 50 {
		t.Errorf("composition: %d wc, %d pr", wc, pr)
	}
	// Fixed-interval arrivals.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival-jobs[i-1].Arrival != 40 {
			t.Fatalf("gap at %d: %d", i, jobs[i].Arrival-jobs[i-1].Arrival)
		}
	}
	// Determinism.
	again := MixedDeployment(100, Arrival{Kind: FixedInterval, MeanGap: 40}, 7)
	for i := range jobs {
		if jobs[i].Phases[0].MeanDuration != again[i].Phases[0].MeanDuration {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestHomogeneous(t *testing.T) {
	jobs, err := Homogeneous("pagerank", 20, 10, Arrival{Kind: FixedInterval, MeanGap: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 20 {
		t.Fatalf("jobs: %d", len(jobs))
	}
	for _, j := range jobs {
		if j.App != "pagerank" {
			t.Fatal("app")
		}
	}
	if _, err := Homogeneous("sort", 5, 1, Arrival{}, 1); err == nil {
		t.Error("unknown app should error")
	}
}

func TestPoissonArrivalsIncrease(t *testing.T) {
	jobs, err := Homogeneous("wordcount", 50, 10, Arrival{Kind: Poisson, MeanGap: 10}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(jobs); i++ {
		g := jobs[i].Arrival - jobs[i-1].Arrival
		if g < 1 {
			t.Fatalf("non-positive gap %d", g)
		}
		gaps = append(gaps, float64(g))
	}
	m := stats.Mean(gaps)
	if m < 4 || m > 20 {
		t.Errorf("poisson mean gap: %v, want ~10", m)
	}
}

func TestGoogleLikeStatistics(t *testing.T) {
	g := DefaultGoogleLike(400, 10, 13)
	jobs := g.Generate()
	if len(jobs) != 400 {
		t.Fatalf("jobs: %d", len(jobs))
	}
	heavyPhases, totalPhases := 0, 0
	small := 0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.TotalTasks() <= 20 {
			small++
		}
		for _, p := range j.Phases {
			totalPhases++
			if p.SDDuration >= p.MeanDuration {
				heavyPhases++
			}
		}
	}
	frac := float64(heavyPhases) / float64(totalPhases)
	if math.Abs(frac-0.70) > 0.08 {
		t.Errorf("straggler-phase fraction: %v, want ~0.70", frac)
	}
	if float64(small)/float64(len(jobs)) < 0.6 {
		t.Errorf("job size distribution not heavy-tailed: %d/%d small", small, len(jobs))
	}
	// Determinism.
	again := DefaultGoogleLike(400, 10, 13).Generate()
	for i := range jobs {
		if jobs[i].TotalTasks() != again[i].TotalTasks() {
			t.Fatal("google-like trace not deterministic")
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	jobs := MixedDeployment(10, Arrival{Kind: FixedInterval, MeanGap: 5}, 3)
	var buf bytes.Buffer
	if err := Write(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("round trip count: %d", len(got))
	}
	for i := range jobs {
		if got[i].ID != jobs[i].ID || got[i].Arrival != jobs[i].Arrival ||
			len(got[i].Phases) != len(jobs[i].Phases) {
			t.Fatalf("job %d mismatch", i)
		}
		for k := range jobs[i].Phases {
			if got[i].Phases[k].Tasks != jobs[i].Phases[k].Tasks ||
				got[i].Phases[k].Demand != jobs[i].Phases[k].Demand ||
				got[i].Phases[k].MeanDuration != jobs[i].Phases[k].MeanDuration {
				t.Fatalf("job %d phase %d mismatch", i, k)
			}
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := Read(strings.NewReader(`{"version": 99, "jobs": []}`)); err == nil {
		t.Error("wrong version should error")
	}
	bad := `{"version": 1, "jobs": [{"ID": 1, "Phases": [{"Name":"p","Tasks":0,"Demand":{"CPUMilli":1,"MemMiB":1},"MeanDuration":1}]}]}`
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("invalid job should error")
	}
}

func TestArrivalUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	Arrival{Kind: ArrivalKind(99)}.next(0, stats.NewRNG(1))
}

var _ = workload.JobID(0)

// TestJobsOwnTheirSlices: the generator cuts many jobs' records from one
// block, the templates' Chain cuts a job's Parents from one array, and
// the stream decoder cuts them from one array per job. Each cut is
// full to its capacity, so an append to one job's Phases or to one
// phase's Parents reallocates instead of writing into a neighbour.
func TestJobsOwnTheirSlices(t *testing.T) {
	generated := DefaultGoogleLike(600, 1.0, 42).Generate()
	raw := encodeStream(t, generated)
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []*workload.Job
	for {
		j, err := s.Next()
		if err != nil {
			break
		}
		decoded = append(decoded, j)
	}
	rng := stats.NewRNG(5)
	templates := []*workload.Job{
		WordCount(1, 0, 2, rng), PageRank(2, 0, 2, rng), TeraSort(3, 0, 2, rng),
	}
	for name, jobs := range map[string][]*workload.Job{"generated": generated, "decoded": decoded, "templates": templates} {
		if len(jobs) == 0 {
			t.Fatalf("%s: no jobs", name)
		}
		for _, j := range jobs {
			if cap(j.Phases) != len(j.Phases) {
				t.Fatalf("%s: job %d has %d phases in a slice of capacity %d", name, j.ID, len(j.Phases), cap(j.Phases))
			}
			for k, p := range j.Phases {
				if cap(p.Parents) != len(p.Parents) {
					t.Fatalf("%s: job %d phase %d has %d parents in a slice of capacity %d", name, j.ID, k, len(p.Parents), cap(p.Parents))
				}
			}
		}
	}
	// Appending to every job leaves the encoding of all of them as it was.
	for _, j := range generated {
		_ = append(j.Phases, workload.Phase{Name: "extra"})
		for _, p := range j.Phases {
			_ = append(p.Parents, 99)
		}
	}
	if again := encodeStream(t, generated); !bytes.Equal(again, raw) {
		t.Fatal("appending to the generated jobs changed their encoding")
	}
}
