package core_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := core.New(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if _, err := core.New(core.WithClones(4)); err == nil {
		t.Error("clones > 3 should error")
	}
	if _, err := core.New(core.WithClones(-1)); err == nil {
		t.Error("negative clones should error")
	}
	if _, err := core.New(core.WithVarianceFactor(-1)); err == nil {
		t.Error("negative r should error")
	}
	if _, err := core.New(core.WithCloneBudget(1.5)); err == nil {
		t.Error("delta > 1 should error")
	}
	s := core.MustNew(core.WithClones(1))
	if s.Name() != "dollymp1" || s.MaxClones() != 1 {
		t.Errorf("variant: %s/%d", s.Name(), s.MaxClones())
	}
	spec := core.MustNew(core.WithSpeculation(1.5, 3))
	if spec.Name() != "dollymp-spec" {
		t.Errorf("speculation name: %s", spec.Name())
	}
	if _, err := core.New(core.WithSpeculation(1.0, 3)); err == nil {
		t.Error("threshold ≤ 1 should error")
	}
	if _, err := core.New(core.WithSpeculation(1.5, 0)); err == nil {
		t.Error("zero samples should error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad options should panic")
		}
	}()
	core.MustNew(core.WithClones(9))
}

func run(t *testing.T, c *cluster.Cluster, jobs []*workload.Job, s *core.Scheduler, det bool, seed uint64) *sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{
		Cluster: c, Jobs: jobs, Scheduler: s, Seed: seed,
		Deterministic: det, Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmallJobScheduledBeforeBig(t *testing.T) {
	// One unit server; a big slow job (ID 1) and a small fast job
	// (ID 2) arrive together. DollyMP must run the small one first even
	// though the big one has a lower ID.
	c := cluster.Uniform(1, resources.Cores(4, 8))
	big := workload.SingleTask(1, 0, resources.Cores(4, 8), 40, 0)
	small := workload.SingleTask(2, 0, resources.Cores(1, 1), 2, 0)
	res := run(t, c, []*workload.Job{big, small}, core.MustNew(core.WithClones(0)), true, 1)
	by := res.ByJobID()
	if by[2].Finish != 2 {
		t.Fatalf("small job should finish at 2: %+v", by[2])
	}
	if by[1].FirstStart != 2 {
		t.Fatalf("big job should wait for the small one: %+v", by[1])
	}
}

func TestDollyMP0NeverClones(t *testing.T) {
	c := cluster.Testbed30()
	jobs := make([]*workload.Job, 20)
	for i := range jobs {
		jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*5), resources.Cores(2, 4), 10, 8)
	}
	res := run(t, c, jobs, core.MustNew(core.WithClones(0)), false, 7)
	for _, j := range res.Jobs {
		if j.TasksCloned != 0 || j.CopiesLaunched != j.TotalTasks {
			t.Fatalf("DollyMP0 cloned: %+v", j)
		}
	}
}

func TestCloneLimitPerVariant(t *testing.T) {
	// A single tiny job on a huge idle cluster: DollyMP^k should give
	// its task exactly k clones.
	for k := 0; k <= 3; k++ {
		c := cluster.Uniform(8, resources.Cores(8, 16))
		j := workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 8)
		res := run(t, c, []*workload.Job{j}, core.MustNew(core.WithClones(k)), false, 11)
		want := 1 + k
		if got := res.Jobs[0].CopiesLaunched; got != want {
			t.Errorf("DollyMP%d launched %d copies, want %d", k, got, want)
		}
	}
}

func TestCloneBudgetRespected(t *testing.T) {
	// δ = 0: no clones even when the cluster is idle.
	c := cluster.Uniform(8, resources.Cores(8, 16))
	j := workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 8)
	res := run(t, c, []*workload.Job{j},
		core.MustNew(core.WithClones(2), core.WithCloneBudget(0)), false, 3)
	if res.Jobs[0].CopiesLaunched != 1 {
		t.Fatalf("δ=0 must forbid clones: %+v", res.Jobs[0])
	}
	// Tight δ: budget admits exactly one clone of the 1-core task on an
	// 8-server × 8-core cluster (64 cores total; δ=1/64 ≈ 0.0157 covers
	// 1 core).
	res = run(t, c, []*workload.Job{j},
		core.MustNew(core.WithClones(2), core.WithCloneBudget(1.0/64)), false, 3)
	if res.Jobs[0].CopiesLaunched != 2 {
		t.Fatalf("tight δ should admit one clone: %+v", res.Jobs[0])
	}
}

func TestClonesOnlyWhenNewTasksExhausted(t *testing.T) {
	// Cluster fits exactly the tasks of two jobs with nothing spare:
	// no clones may launch even with δ = 1.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{
		workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5),
		workload.SingleTask(2, 0, resources.Cores(1, 1), 10, 5),
	}
	res := run(t, c, jobs, core.MustNew(core.WithClones(2), core.WithCloneBudget(1)), true, 5)
	for _, j := range res.Jobs {
		if j.TasksCloned != 0 {
			t.Fatalf("full cluster must not clone: %+v", j)
		}
	}
}

func TestPendingTasksBlockOwnJobClones(t *testing.T) {
	// A job with more tasks than the cluster fits: its own pending
	// tasks must absorb capacity before any clone launches.
	c := cluster.Uniform(2, resources.Cores(2, 4))
	j := &workload.Job{
		ID: 1, Name: "wide", App: "t", Arrival: 0,
		Phases: []workload.Phase{{
			Name: "only", Tasks: 8, Demand: resources.Cores(1, 1),
			MeanDuration: 10, SDDuration: 8,
		}},
	}
	res := run(t, c, []*workload.Job{j}, core.MustNew(core.WithClones(2), core.WithCloneBudget(1)), true, 9)
	// Deterministic durations: every copy takes 10; cluster holds 4
	// copies at a time; 8 tasks → waves at t=0 and t=10; no clones
	// should ever be placed while tasks are pending. After the final
	// wave there are no pending tasks, so clones may appear; with
	// deterministic durations they change nothing.
	if res.Jobs[0].Finish != 20 {
		t.Fatalf("finish: %+v", res.Jobs[0])
	}
}

func TestDAGJobCompletes(t *testing.T) {
	c := cluster.Testbed30()
	j := workload.Chain(1, "mr", "wordcount", 0, []workload.Phase{
		{Name: "map", Tasks: 20, Demand: resources.Cores(1, 2), MeanDuration: 8, SDDuration: 6},
		{Name: "reduce", Tasks: 5, Demand: resources.Cores(2, 4), MeanDuration: 6, SDDuration: 3},
	})
	res := run(t, c, []*workload.Job{j}, core.MustNew(), false, 21)
	if len(res.Jobs) != 1 || res.Jobs[0].Flowtime <= 0 {
		t.Fatalf("DAG job did not complete: %+v", res.Jobs)
	}
}

func TestHeavyLoadManyJobs(t *testing.T) {
	c := cluster.Testbed30()
	jobs := make([]*workload.Job, 60)
	for i := range jobs {
		jobs[i] = workload.Chain(workload.JobID(i), "j", "mix", int64(i*2), []workload.Phase{
			{Name: "a", Tasks: 4 + i%5, Demand: resources.Cores(1+int64(i%2), 2), MeanDuration: 6, SDDuration: 4},
			{Name: "b", Tasks: 2, Demand: resources.Cores(1, 2), MeanDuration: 4, SDDuration: 2},
		})
	}
	res := run(t, c, jobs, core.MustNew(), false, 33)
	if len(res.Jobs) != 60 {
		t.Fatalf("completed %d/60 jobs", len(res.Jobs))
	}
	// Cloning happened somewhere (heavy tails + idle tails of waves).
	cloned := 0
	for _, j := range res.Jobs {
		cloned += j.TasksCloned
	}
	if cloned == 0 {
		t.Error("expected some cloning under DollyMP2")
	}
}

func TestDollyMPDeterministicAcrossRuns(t *testing.T) {
	mk := func() *sim.Result {
		c := cluster.Testbed30()
		jobs := make([]*workload.Job, 25)
		for i := range jobs {
			jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*4), resources.Cores(2, 4), 9, 7)
		}
		e, err := sim.New(sim.Config{Cluster: c, Jobs: jobs, Scheduler: core.MustNew(), Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.TotalFlowtime() != b.TotalFlowtime() {
		t.Fatalf("not deterministic: %d vs %d", a.TotalFlowtime(), b.TotalFlowtime())
	}
}

// TestArrivalBelowCloneFloorIsCloned pins the redundancy passes' entry
// check against a stale floor: once the smallest demand among the
// active jobs fits nowhere the passes are skipped, and a job that then
// arrives asking for less must lower the floor — through the recompute
// its fresh record forces — before the passes of that very call run.
func TestArrivalBelowCloneFloorIsCloned(t *testing.T) {
	ctx := schedtest.New(cluster.Uniform(2, resources.Cores(4, 8)))
	ctx.MustAddJob(&workload.Job{ID: 1, Name: "wide", App: "t", Phases: []workload.Phase{{
		Name: "p", Tasks: 2, Demand: resources.Cores(3, 6), MeanDuration: 10, SDDuration: 5,
	}}})
	s := core.MustNew()
	apply := func(want int) []sched.Placement {
		t.Helper()
		ps := s.Schedule(ctx)
		if len(ps) != want {
			t.Fatalf("%d placements, want %d: %+v", len(ps), want, ps)
		}
		if err := ctx.Apply(ps); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	apply(2) // one task a server; (1c, 2G) left on each
	apply(0) // the floor, 3c/6G, fits nowhere: nothing to clone

	ctx.MustAddJob(workload.SingleTask(2, 0, resources.Cores(1, 1), 10, 5))
	apply(1) // the new task; its job is not running yet, so no clone
	ps := apply(1)
	if ps[0].Ref.Job != 2 || ctx.CloneUse != resources.Cores(1, 1) {
		t.Fatalf("job 2's task should have been cloned on the other server: %+v, clone use %v", ps, ctx.CloneUse)
	}
}
