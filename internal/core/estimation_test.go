package core_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
	"dollymp/internal/resources"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

func TestEstimationModeCompletesRecurringWorkload(t *testing.T) {
	// Repeated WordCount jobs: the estimator should converge from the
	// prior to recurring-job statistics and the run must complete.
	rng := uint64(0)
	jobs := make([]*workload.Job, 16)
	for i := range jobs {
		jobs[i] = trace.WordCount(workload.JobID(i), int64(i*6), 5, stats.NewRNG(rng+uint64(i)))
	}
	s := core.MustNew(core.WithEstimation(estimate.Config{MinSamples: 2}))
	e, cert, err := verify.New(sim.Config{
		Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: s, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err == nil {
		err = cert.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("completed %d/%d", len(res.Jobs), len(jobs))
	}
}

func TestEstimationModeNeverReadsDeclaredStats(t *testing.T) {
	// A single job with wildly wrong declared statistics: with
	// estimation on, the first priority computation must use the prior
	// (10 slots), not the declared 10 000 — observable through the
	// schedule still starting the job immediately (sanity) and through
	// the job completing despite the bogus declaration.
	j := workload.SingleTask(1, 0, resources.Cores(1, 1), 5, 0)
	j.Phases[0].MeanDuration = 5 // actual runtime
	s := core.MustNew(core.WithEstimation(estimate.Config{}))
	e, err := sim.New(sim.Config{
		Cluster:   cluster.Uniform(2, resources.Cores(2, 4)),
		Jobs:      []*workload.Job{j},
		Scheduler: s, Seed: 1, Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish != 5 {
		t.Fatalf("finish: %+v", res.Jobs[0])
	}
}
