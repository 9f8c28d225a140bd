package yarn

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

func twoRackFleet(t *testing.T, perRack int) *cluster.Cluster {
	t.Helper()
	specs := make([]cluster.Spec, 0, 2*perRack)
	for rack := 0; rack < 2; rack++ {
		for i := 0; i < perRack; i++ {
			specs = append(specs, cluster.Spec{
				Name:     "srv",
				Capacity: resources.Cores(4, 8),
				Speed:    1,
				Rack:     rack,
			})
		}
	}
	c, err := cluster.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaults(t *testing.T) {
	s := New()
	if s.Name() != "yarn-dollymp2" {
		t.Errorf("name: %s", s.Name())
	}
	z := &Scheduler{}
	if z.r() != 1.5 || z.delta() != 0.3 {
		t.Errorf("zero-value params: %v %v", z.r(), z.delta())
	}
	if (&Scheduler{MaxClones: -1}).maxClones() != 0 {
		t.Error("negative clones should clamp to 0")
	}
}

func TestRootTaskBindsToInputRack(t *testing.T) {
	fleet := twoRackFleet(t, 2)
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 0))

	s := New()
	ps := s.Schedule(ctx)
	if len(ps) == 0 {
		t.Fatal("no placements")
	}
	want := workload.InputRack(workload.TaskRef{Job: 1}, 2)
	if got := fleet.Server(ps[0].Server).Rack; got != want {
		t.Fatalf("bound to rack %d, want input rack %d", got, want)
	}
}

func TestDownstreamTaskFollowsUpstreamOutputs(t *testing.T) {
	fleet := twoRackFleet(t, 2)
	ctx := schedtest.New(fleet)
	js := ctx.MustAddJob(workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "map", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
		{Name: "reduce", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
	}))
	if err := js.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	// The map output lives on rack 1.
	ctx.OutputRacks[schedtest.PhaseKey{Job: 1, Phase: 0}] = 1

	ps := New().Schedule(ctx)
	if len(ps) != 1 {
		t.Fatalf("placements: %+v", ps)
	}
	if got := fleet.Server(ps[0].Server).Rack; got != 1 {
		t.Fatalf("reduce bound to rack %d, want 1", got)
	}
}

func TestFallsBackOffRack(t *testing.T) {
	// The preferred rack is full: the task must still be placed.
	fleet := twoRackFleet(t, 1)
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 0))
	want := workload.InputRack(workload.TaskRef{Job: 1}, 2)
	// Fill the preferred rack.
	for _, srv := range fleet.Servers() {
		if srv.Rack == want {
			if err := fleet.Allocate(srv.ID, srv.Capacity); err != nil {
				t.Fatal(err)
			}
		}
	}
	ps := New().Schedule(ctx)
	if len(ps) != 1 {
		t.Fatalf("placements: %+v", ps)
	}
	if got := fleet.Server(ps[0].Server).Rack; got == want {
		t.Fatalf("preferred rack was full, got rack %d anyway", got)
	}
}

func TestClonesFollowLocality(t *testing.T) {
	fleet := twoRackFleet(t, 2)
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	ref := workload.TaskRef{Job: 1}

	s := New()
	// First round places the original on the input rack.
	ps := s.Schedule(ctx)
	if err := ctx.Apply(ps); err != nil {
		t.Fatal(err)
	}
	// Second round: nothing pending, idle resources → clones; they too
	// must land on the preferred rack while it has room.
	ps = s.Schedule(ctx)
	if len(ps) == 0 {
		t.Fatal("no clones granted")
	}
	want := workload.InputRack(ref, 2)
	for _, p := range ps {
		if p.Ref != ref {
			t.Fatalf("unexpected placement %+v", p)
		}
		if got := fleet.Server(p.Server).Rack; got != want {
			t.Fatalf("clone on rack %d, want %d", got, want)
		}
	}
}

func TestEndToEndCompletesAndMatchesFlat(t *testing.T) {
	// Without a transfer penalty the two-level scheduler should be in
	// the same performance ballpark as flat DollyMP².
	jobs := make([]*workload.Job, 30)
	for i := range jobs {
		jobs[i] = workload.Chain(workload.JobID(i), "mr", "wordcount", int64(i*3), []workload.Phase{
			{Name: "map", Tasks: 6, Demand: resources.Cores(1, 2), MeanDuration: 8, SDDuration: 6},
			{Name: "reduce", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: 5, SDDuration: 3},
		})
	}
	runOne := func(sch sched.Scheduler) int64 {
		e, cert, err := verify.New(sim.Config{
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: sch, Seed: 5,
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
			t.Fatalf("%s completed %d/%d", sch.Name(), len(res.Jobs), len(jobs))
		}
		return res.TotalFlowtime()
	}
	yarnFlow := runOne(New())
	flatFlow := runOne(core.MustNew())
	ratio := float64(yarnFlow) / float64(flatFlow)
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("two-level flowtime %d too far from flat %d", yarnFlow, flatFlow)
	}
}

func TestLocalityBeatsFlatUnderTransferPenalty(t *testing.T) {
	// With a significant cross-rack penalty, the AM's locality binding
	// must beat rack-oblivious flat DollyMP.
	jobs := make([]*workload.Job, 24)
	for i := range jobs {
		jobs[i] = workload.Chain(workload.JobID(i), "mr", "wordcount", int64(i*4), []workload.Phase{
			{Name: "map", Tasks: 6, Demand: resources.Cores(1, 2), MeanDuration: 6, SDDuration: 2},
			{Name: "reduce", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: 4, SDDuration: 1},
		})
	}
	runOne := func(sch sched.Scheduler) int64 {
		e, cert, err := verify.New(sim.Config{
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: sch, Seed: 7,
			TransferPenalty: 4,
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
		return res.TotalFlowtime()
	}
	yarnFlow := runOne(New())
	flatFlow := runOne(core.MustNew())
	if yarnFlow >= flatFlow {
		t.Fatalf("locality binding should win under transfer penalty: yarn %d vs flat %d",
			yarnFlow, flatFlow)
	}
}
