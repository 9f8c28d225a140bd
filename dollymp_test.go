package dollymp_test

import (
	"slices"
	"strings"
	"testing"

	"dollymp"
)

func TestPublicQuickstart(t *testing.T) {
	fleet := dollymp.Testbed30()
	jobs := dollymp.MixedWorkload(12, 8, 1)
	sched, err := dollymp.NewScheduler(dollymp.KindDollyMP2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dollymp.Simulate(dollymp.SimConfig{
		Cluster: fleet, Jobs: jobs, Scheduler: sched, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 12 {
		t.Fatalf("completed %d/12 jobs", len(res.Jobs))
	}
	if res.MeanFlowtime() <= 0 {
		t.Fatal("mean flowtime")
	}
}

func TestAllKindsConstructAndRun(t *testing.T) {
	jobs := dollymp.MixedWorkload(6, 5, 2)
	for _, kind := range dollymp.Kinds() {
		s, err := dollymp.NewScheduler(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := dollymp.Simulate(dollymp.SimConfig{
			Cluster: dollymp.Testbed30(), Jobs: jobs, Scheduler: s, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Jobs) != 6 {
			t.Fatalf("%s: %d jobs", kind, len(res.Jobs))
		}
	}
	if _, err := dollymp.NewScheduler("nosuch"); err == nil || !strings.Contains(err.Error(), "valid: dollymp0, dollymp1, ") {
		t.Errorf("unknown kind: %v, want an error listing the valid names", err)
	}
	// The Kind constants and the name table behind Kinds must not drift.
	consts := []dollymp.Kind{
		dollymp.KindDollyMP0, dollymp.KindDollyMP1, dollymp.KindDollyMP2, dollymp.KindDollyMP3, dollymp.KindYARN,
		dollymp.KindCapacity, dollymp.KindDRF, dollymp.KindTetris, dollymp.KindCarbyne, dollymp.KindSRPT, dollymp.KindSVF,
		dollymp.KindRandom,
	}
	if !slices.Equal(consts, dollymp.Kinds()) {
		t.Errorf("Kinds() = %v, constants are %v", dollymp.Kinds(), consts)
	}
}

func TestNewDollyMPOptions(t *testing.T) {
	s, err := dollymp.NewDollyMP(
		dollymp.WithClones(1),
		dollymp.WithVarianceFactor(1.0),
		dollymp.WithCloneBudget(0.2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "dollymp1" {
		t.Errorf("name: %s", s.Name())
	}
	if _, err := dollymp.NewDollyMP(dollymp.WithClones(7)); err == nil {
		t.Error("invalid options should error")
	}
}

func TestCustomClusterAndJobs(t *testing.T) {
	fleet, err := dollymp.NewCluster([]dollymp.ServerSpec{
		{Name: "a", Capacity: dollymp.Cores(8, 16), Speed: 1},
		{Name: "b", Capacity: dollymp.Cores(16, 32), Speed: 1.4, Rack: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*dollymp.Job{
		dollymp.WordCountJob(0, 0, 2, 7),
		dollymp.PageRankJob(1, 5, 1, 8),
	}
	s, err := dollymp.NewScheduler(dollymp.KindTetris)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dollymp.Simulate(dollymp.SimConfig{
		Cluster: fleet, Jobs: jobs, Scheduler: s, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs: %d", len(res.Jobs))
	}
}

func TestGoogleWorkloadValidates(t *testing.T) {
	jobs := dollymp.GoogleWorkload(30, 5, 4)
	if len(jobs) != 30 {
		t.Fatalf("jobs: %d", len(jobs))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
