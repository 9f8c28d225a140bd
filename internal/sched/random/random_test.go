package random

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

func TestName(t *testing.T) {
	if New(1).Name() != "random" {
		t.Fatal("name")
	}
}

func TestPlacesEverythingThatFits(t *testing.T) {
	ctx := schedtest.New(cluster.Uniform(2, resources.Cores(2, 4)))
	ctx.MustAddJob(&workload.Job{ID: 1, Name: "w", App: "t", Phases: []workload.Phase{{
		Name: "p", Tasks: 10, Demand: resources.Cores(1, 2), MeanDuration: 5,
	}}})
	ps := New(3).Schedule(ctx)
	if len(ps) != 4 { // 2 servers × 2 slots
		t.Fatalf("placements: %d", len(ps))
	}
	if err := ctx.Apply(ps); err != nil {
		t.Fatal(err)
	}
}

func exec(t *testing.T, jobs []*workload.Job, s sched.Scheduler, seed uint64) int64 {
	t.Helper()
	e, cert, err := verify.New(sim.Config{
		Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: s, Seed: seed,
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
		t.Fatalf("%s completed %d/%d", s.Name(), len(res.Jobs), len(jobs))
	}
	return res.TotalFlowtime()
}

func TestDeterministicPerSeed(t *testing.T) {
	jobs := trace.MixedDeployment(10, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 4}, 5)
	if exec(t, jobs, New(9), 2) != exec(t, jobs, New(9), 2) {
		t.Fatal("random scheduler not reproducible per seed")
	}
}

func TestDollyMPBeatsRandom(t *testing.T) {
	// The calibration property: on a loaded heterogeneous cluster with
	// mixed job sizes, DollyMP² must clearly beat random placement.
	jobs := trace.MixedDeployment(30, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 4}, 13)
	rnd := exec(t, jobs, New(9), 4)
	dolly := exec(t, jobs, core.MustNew(), 4)
	if dolly >= rnd {
		t.Fatalf("DollyMP2 (%d) should beat random (%d)", dolly, rnd)
	}
}
