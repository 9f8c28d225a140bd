package schedtest

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

func fleet() *cluster.Cluster { return cluster.Uniform(2, resources.Cores(4, 8)) }

func TestAddJobValidates(t *testing.T) {
	ctx := New(fleet())
	if _, err := ctx.AddJob(&workload.Job{ID: 1}); err == nil {
		t.Fatal("invalid job accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddJob should panic on invalid job")
		}
	}()
	ctx.MustAddJob(&workload.Job{ID: 2})
}

func TestJobsFiltersArrivalAndDone(t *testing.T) {
	ctx := New(fleet())
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 5, 0))
	ctx.MustAddJob(workload.SingleTask(2, 10, resources.Cores(1, 1), 5, 0))
	done := ctx.MustAddJob(workload.SingleTask(3, 0, resources.Cores(1, 1), 5, 0))
	if err := done.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Jobs(); len(got) != 1 || got[0].Job.ID != 1 {
		t.Fatalf("jobs at t=0: %+v", got)
	}
	ctx.Clock = 10
	if got := ctx.Jobs(); len(got) != 2 {
		t.Fatalf("jobs at t=10: %d", len(got))
	}
}

func TestApplyAndComplete(t *testing.T) {
	ctx := New(fleet())
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(2, 4), 5, 0))
	ref := workload.TaskRef{Job: 1}
	if err := ctx.Apply([]sched.Placement{{Ref: ref, Server: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Allocation(1); got != resources.Cores(2, 4) {
		t.Fatalf("alloc: %v", got)
	}
	if len(ctx.Copies(ref)) != 1 {
		t.Fatal("copy not recorded")
	}
	// Second copy is a clone and charges the clone budget.
	if err := ctx.Apply([]sched.Placement{{Ref: ref, Server: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.CloneUsage(); got != resources.Cores(2, 4) {
		t.Fatalf("clone usage: %v", got)
	}
	if err := ctx.Complete(ref); err != nil {
		t.Fatal(err)
	}
	if !ctx.CloneUsage().IsZero() || !ctx.Allocation(1).IsZero() {
		t.Fatal("complete must release everything")
	}
	if got := ctx.Fleet.TotalFree(); got != ctx.Fleet.Total() {
		t.Fatalf("fleet not fully free: %v", got)
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	ctx := New(fleet())
	ctx.MustAddJob(workload.Chain(1, "c", "t", 0, []workload.Phase{
		{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
		{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
	}))
	cases := []sched.Placement{
		{Ref: workload.TaskRef{Job: 9}},                     // unknown job
		{Ref: workload.TaskRef{Job: 1, Phase: 7}},           // bad phase
		{Ref: workload.TaskRef{Job: 1, Phase: 0, Index: 5}}, // bad index
		{Ref: workload.TaskRef{Job: 1, Phase: 1}},           // parents unfinished
	}
	for _, p := range cases {
		if err := ctx.Apply([]sched.Placement{p}); err == nil {
			t.Errorf("accepted invalid placement %+v", p)
		}
	}
	// The engine completes only a task with a running copy.
	pending := workload.TaskRef{Job: 1, Phase: 0}
	if err := ctx.Complete(pending); err == nil {
		t.Errorf("completed %v, which has no running copy", pending)
	}
	if got := ctx.JobStates[0].Task(0, 0); got != workload.TaskPending {
		t.Errorf("rejected completion left the task %v", got)
	}
}

func TestStatsOverride(t *testing.T) {
	ctx := New(fleet())
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 7, 3))
	m, sd, n := ctx.PhaseStats(1, 0)
	if m != 7 || sd != 3 || n != 0 {
		t.Fatalf("declared stats: %v %v %d", m, sd, n)
	}
	ctx.StatsOverride[PhaseKey{Job: 1, Phase: 0}] = PhaseStats{Mean: 99, SD: 1, N: 5}
	m, _, n = ctx.PhaseStats(1, 0)
	if m != 99 || n != 5 {
		t.Fatalf("override: %v %d", m, n)
	}
	if _, _, n := ctx.PhaseStats(42, 0); n != 0 {
		t.Fatal("unknown job")
	}
}

func TestHelpers(t *testing.T) {
	ps := []sched.Placement{
		{Ref: workload.TaskRef{Job: 1}},
		{Ref: workload.TaskRef{Job: 2}},
		{Ref: workload.TaskRef{Job: 1, Index: 1}},
	}
	if got := PlacementsFor(ps, 1); len(got) != 2 {
		t.Fatalf("PlacementsFor: %+v", got)
	}
	ctx := New(fleet())
	// Two placements for the same fresh task: the second is a clone.
	same := []sched.Placement{
		{Ref: workload.TaskRef{Job: 1}, Server: 0},
		{Ref: workload.TaskRef{Job: 1}, Server: 1},
	}
	if got := ctx.CloneCount(same); got != 1 {
		t.Fatalf("CloneCount: %d", got)
	}
}
