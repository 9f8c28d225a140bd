package tetris

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/workload"
)

func TestName(t *testing.T) {
	if (&Scheduler{}).Name() != "tetris" {
		t.Fatal("name")
	}
	if (&Scheduler{}).epsilon() != 0.1 {
		t.Fatal("default epsilon")
	}
	if (&Scheduler{Epsilon: 0.5}).epsilon() != 0.5 {
		t.Fatal("explicit epsilon")
	}
}

func TestHighUsageJobFirst(t *testing.T) {
	// The §2 example: on a tied alignment, the job with the larger
	// resource-usage term p = duration × dominant share wins; here the
	// big job also has the larger alignment, so it must be placed while
	// the small ones wait — Tetris's documented failure mode.
	fleet := cluster.Uniform(1, resources.Cores(4, 8))
	ctx := schedtest.New(fleet)
	big := workload.SingleTask(1, 0, resources.Cores(4, 8), 10, 0)
	small := workload.SingleTask(2, 0, resources.Cores(1, 2), 8, 0)
	ctx.MustAddJob(small)
	ctx.MustAddJob(big)

	s := &Scheduler{}
	ps := s.Schedule(ctx)
	if len(ps) == 0 {
		t.Fatal("no placements")
	}
	if ps[0].Ref.Job != 1 {
		t.Fatalf("big job should be scored first: %+v", ps)
	}
}

func TestAlignmentPicksMatchingServer(t *testing.T) {
	// CPU-heavy demand must land on the CPU-rich server.
	fleet, err := cluster.New([]cluster.Spec{
		{Name: "cpu", Capacity: resources.Cores(16, 4), Speed: 1},
		{Name: "mem", Capacity: resources.Cores(4, 32), Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(4, 1), 10, 0))
	ps := (&Scheduler{}).Schedule(ctx)
	if len(ps) != 1 || ps[0].Server != 0 {
		t.Fatalf("want the CPU-rich server 0: %+v", ps)
	}
}

func TestDrainsAllFittingTasks(t *testing.T) {
	fleet := cluster.Uniform(2, resources.Cores(2, 4))
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(&workload.Job{ID: 1, Name: "w", App: "t", Phases: []workload.Phase{{
		Name: "p", Tasks: 10, Demand: resources.Cores(1, 2), MeanDuration: 5,
	}}})
	ps := (&Scheduler{}).Schedule(ctx)
	if len(ps) != 4 { // 2 servers × 2 slots each
		t.Fatalf("want 4 placements, got %d", len(ps))
	}
	if err := ctx.Apply(ps); err != nil {
		t.Fatal(err)
	}
	if more := (&Scheduler{}).Schedule(ctx); len(more) != 0 {
		t.Fatalf("full cluster, got %+v", more)
	}
}

func TestRespectsDependencies(t *testing.T) {
	fleet := cluster.Uniform(1, resources.Cores(8, 8))
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "map", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
		{Name: "reduce", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
	}))
	ps := (&Scheduler{}).Schedule(ctx)
	if len(ps) != 1 || ps[0].Ref.Phase != 0 {
		t.Fatalf("only the map phase is ready: %+v", ps)
	}
}

func TestNoCloningByDefault(t *testing.T) {
	fleet := cluster.Uniform(4, resources.Cores(8, 8))
	ctx := schedtest.New(fleet)
	js := ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	js.MarkRunning(0, 0)
	ctx.CopyMap[workload.TaskRef{Job: 1}] = []sched.CopyStatus{{Server: 0, Start: 0}}
	if ps := (&Scheduler{}).Schedule(ctx); len(ps) != 0 {
		t.Fatalf("tetris proper must not clone: %+v", ps)
	}
}

func TestCloneModeTopsUpRunningTasks(t *testing.T) {
	fleet := cluster.Uniform(4, resources.Cores(8, 8))
	ctx := schedtest.New(fleet)
	js := ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	js.MarkRunning(0, 0)
	ref := workload.TaskRef{Job: 1}
	ctx.CopyMap[ref] = []sched.CopyStatus{{Server: 0, Start: 0}}
	ps := (&Scheduler{MaxClones: 1}).Schedule(ctx)
	if len(ps) != 1 || ps[0].Ref != ref {
		t.Fatalf("want one clone: %+v", ps)
	}
	// Already at the cap: no more.
	js.MarkRunning(0, 0)
	ctx.CopyMap[ref] = append(ctx.CopyMap[ref], sched.CopyStatus{Server: 1, Start: 0, Clone: true})
	if more := (&Scheduler{MaxClones: 1}).Schedule(ctx); len(more) != 0 {
		t.Fatalf("over-cloned: %+v", more)
	}
}

func TestEmptyContext(t *testing.T) {
	ctx := schedtest.New(cluster.Uniform(1, resources.Cores(1, 1)))
	if ps := (&Scheduler{}).Schedule(ctx); len(ps) != 0 {
		t.Fatalf("no jobs, got %+v", ps)
	}
}
