package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

func runDet(t *testing.T, c *cluster.Cluster, jobs []*workload.Job, s sched.Scheduler) *Result {
	t.Helper()
	e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: s, Seed: 1, Deterministic: true})
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
	return res
}

func TestSingleTaskDeterministic(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(4, 8))
	res := runDet(t, c, []*workload.Job{SingleTaskJob(1, 10, 5)}, Greedy{})
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs: %d", len(res.Jobs))
	}
	j := res.Jobs[0]
	if j.Arrival != 10 || j.FirstStart != 10 || j.Finish != 15 {
		t.Fatalf("timeline: %+v", j)
	}
	if j.Flowtime != 5 || j.RunningTime != 5 {
		t.Fatalf("flow/running: %d/%d", j.Flowtime, j.RunningTime)
	}
	if j.CopiesLaunched != 1 || j.TasksCloned != 0 || j.TotalTasks != 1 {
		t.Fatalf("copies: %+v", j)
	}
	// Usage: 1 core, 1 GiB for 5 slots.
	if j.Usage.CPUMilliSlots != 5000 || j.Usage.MemMiBSlots != 5120 {
		t.Fatalf("usage: %+v", j.Usage)
	}
	if res.Makespan != 15 {
		t.Fatalf("makespan: %d", res.Makespan)
	}
}

func TestServerSpeedScalesDuration(t *testing.T) {
	c, err := cluster.New([]cluster.Spec{
		{Name: "fast", Capacity: resources.Cores(4, 8), Speed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runDet(t, c, []*workload.Job{SingleTaskJob(1, 0, 10)}, Greedy{})
	// 10 slots of work at speed 2 → 5 slots.
	if res.Jobs[0].Flowtime != 5 {
		t.Fatalf("flowtime: %d", res.Jobs[0].Flowtime)
	}
}

func TestChainDependency(t *testing.T) {
	c := cluster.Uniform(4, resources.Cores(2, 4))
	j := workload.Chain(1, "mr", "test", 0, []workload.Phase{
		{Name: "map", Tasks: 3, Demand: resources.Cores(1, 1), MeanDuration: 4},
		{Name: "reduce", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 3},
	})
	res := runDet(t, c, []*workload.Job{j}, Greedy{})
	// Maps run in parallel, done at 4; reduce 4→7.
	if res.Jobs[0].Finish != 7 {
		t.Fatalf("finish: %d", res.Jobs[0].Finish)
	}
}

func TestSerializationOnSmallCluster(t *testing.T) {
	// One 1-core server, two 1-core jobs arriving together: they must
	// serialize.
	c := cluster.Uniform(1, resources.Cores(1, 2))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 4), SingleTaskJob(2, 0, 4)}
	res := runDet(t, c, jobs, Greedy{})
	if res.Makespan != 8 {
		t.Fatalf("makespan: %d", res.Makespan)
	}
	if got := res.TotalFlowtime(); got != 4+8 {
		t.Fatalf("total flowtime: %d", got)
	}
}

func TestCloneSemantics(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(1, 1))
	res := runDet(t, c, []*workload.Job{SingleTaskJob(1, 0, 6)}, Cloner{})
	j := res.Jobs[0]
	if j.CopiesLaunched != 2 || j.TasksCloned != 1 {
		t.Fatalf("copies: %+v", j)
	}
	// Deterministic: both copies take 6; task completes at 6; both
	// copies charged 6 slots.
	if j.Finish != 6 {
		t.Fatalf("finish: %d", j.Finish)
	}
	if j.Usage.CPUMilliSlots != 2*6*1000 {
		t.Fatalf("usage should charge both copies: %+v", j.Usage)
	}
	if frac := res.ClonedTaskFraction(); frac != 1 {
		t.Fatalf("cloned fraction: %v", frac)
	}
}

func TestCloneWinnerFreesResourcesForNextJob(t *testing.T) {
	// Cluster fits 2 copies. Job 1 gets original+clone; job 2 must wait
	// until job 1 completes and BOTH copies release.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 5), SingleTaskJob(2, 0, 5)}
	res := runDet(t, c, jobs, Cloner{})
	by := res.ByJobID()
	if by[1].Finish != 5 {
		t.Fatalf("job1 finish: %d", by[1].Finish)
	}
	// Job 2 starts at 5 (with a clone) and finishes at 10.
	if by[2].FirstStart != 5 || by[2].Finish != 10 {
		t.Fatalf("job2: %+v", by[2])
	}
}

func TestStochasticCloningHelps(t *testing.T) {
	// With heavy-tailed durations, min-of-two-draws must beat a single
	// draw on average. Compare mean flowtime across many one-task jobs.
	mk := func() []*workload.Job {
		jobs := make([]*workload.Job, 200)
		for i := range jobs {
			jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*100), resources.Cores(1, 1), 10, 15)
		}
		return jobs
	}
	big := cluster.Uniform(8, resources.Cores(4, 8))
	eng := func(s sched.Scheduler) *Result {
		e, err := New(Config{Cluster: big, Jobs: mk(), Scheduler: s, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noClone := eng(Greedy{})
	withClone := eng(Cloner{})
	if withClone.MeanFlowtime() >= noClone.MeanFlowtime() {
		t.Fatalf("cloning should reduce mean flowtime under heavy tails: %v vs %v",
			withClone.MeanFlowtime(), noClone.MeanFlowtime())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() *Result {
		c := cluster.Testbed30()
		jobs := make([]*workload.Job, 30)
		for i := range jobs {
			jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*3), resources.Cores(2, 4), 8, 6)
		}
		e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Seed: 5})
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
		return res
	}
	a, b := run(), run()
	if a.TotalFlowtime() != b.TotalFlowtime() || a.Makespan != b.Makespan {
		t.Fatalf("simulation not deterministic: %d/%d vs %d/%d",
			a.TotalFlowtime(), a.Makespan, b.TotalFlowtime(), b.Makespan)
	}
}

func TestStuckDetection(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	j := workload.SingleTask(1, 0, resources.Cores(8, 8), 5, 0) // never fits
	e, err := New(Config{Cluster: c, Jobs: []*workload.Job{j}, Scheduler: Greedy{}, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("want stuck error, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	good := SingleTaskJob(1, 0, 1)
	if _, err := New(Config{Jobs: []*workload.Job{good}, Scheduler: Greedy{}}); err == nil {
		t.Error("nil cluster should error")
	}
	if _, err := New(Config{Cluster: c, Jobs: []*workload.Job{good}}); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := New(Config{Cluster: c, Scheduler: Greedy{}}); err == nil {
		t.Error("no jobs should error")
	}
	dup := []*workload.Job{SingleTaskJob(1, 0, 1), SingleTaskJob(1, 0, 1)}
	if _, err := New(Config{Cluster: c, Jobs: dup, Scheduler: Greedy{}}); err == nil {
		t.Error("duplicate IDs should error")
	}
	neg := SingleTaskJob(2, -1, 1)
	if _, err := New(Config{Cluster: c, Jobs: []*workload.Job{neg}, Scheduler: Greedy{}}); err == nil {
		t.Error("negative arrival should error")
	}
	invalid := &workload.Job{ID: 3}
	if _, err := New(Config{Cluster: c, Jobs: []*workload.Job{invalid}, Scheduler: Greedy{}}); err == nil {
		t.Error("invalid job should error")
	}
	// Rack tallies are indexed by rack.
	offRack, err := cluster.New([]cluster.Spec{{Name: "s", Capacity: resources.Cores(1, 1), Speed: 1, Rack: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Cluster: offRack, Jobs: []*workload.Job{good}, Scheduler: Greedy{}}); err == nil {
		t.Error("negative rack should error")
	}
}

// badScheduler returns a specific invalid placement once.
type badScheduler struct {
	placement sched.Placement
	fired     bool
}

func (b *badScheduler) Name() string { return "bad" }
func (b *badScheduler) Schedule(ctx sched.Context) []sched.Placement {
	if b.fired {
		return nil
	}
	b.fired = true
	return []sched.Placement{b.placement}
}

func TestPlacementValidation(t *testing.T) {
	mk := func() (*cluster.Cluster, []*workload.Job) {
		c := cluster.Uniform(2, resources.Cores(2, 4))
		j := workload.Chain(1, "mr", "t", 0, []workload.Phase{
			{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
			{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 5},
		})
		return c, []*workload.Job{j}
	}
	cases := []struct {
		name string
		p    sched.Placement
		want string
	}{
		{"unknown job", sched.Placement{Ref: workload.TaskRef{Job: 99}}, "unknown job"},
		{"bad phase", sched.Placement{Ref: workload.TaskRef{Job: 1, Phase: 9}}, "out-of-range phase"},
		{"bad index", sched.Placement{Ref: workload.TaskRef{Job: 1, Phase: 0, Index: 9}}, "out-of-range task"},
		{"parents not done", sched.Placement{Ref: workload.TaskRef{Job: 1, Phase: 1, Index: 0}}, "parents"},
		{"unknown server", sched.Placement{Ref: workload.TaskRef{Job: 1, Phase: 0, Index: 0}, Server: 55}, "unknown server"},
		{"server at fleet length", sched.Placement{Ref: workload.TaskRef{Job: 1, Phase: 0, Index: 0}, Server: 2}, "unknown server"},
	}
	for _, tc := range cases {
		c, jobs := mk()
		e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: &badScheduler{placement: tc.p}, Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestOverCapacityPlacementRejected(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	j := workload.SingleTask(1, 0, resources.Cores(2, 2), 5, 0)
	e, err := New(Config{
		Cluster: c, Jobs: []*workload.Job{j},
		Scheduler:     &badScheduler{placement: sched.Placement{Ref: workload.TaskRef{Job: 1}}},
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("want fit error, got %v", err)
	}
}

// copyCapScheduler tries to launch more copies than the cap allows.
type copyCapScheduler struct{ fired bool }

func (s *copyCapScheduler) Name() string { return "cap" }
func (s *copyCapScheduler) Schedule(ctx sched.Context) []sched.Placement {
	if s.fired {
		return nil
	}
	s.fired = true
	ref := workload.TaskRef{Job: 1, Phase: 0, Index: 0}
	var out []sched.Placement
	for i := 0; i < sched.MaxCopies+1; i++ {
		out = append(out, sched.Placement{Ref: ref, Server: 0})
	}
	return out
}

func TestMaxCopiesEnforced(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(8, 8))
	j := SingleTaskJob(1, 0, 5)
	e, err := New(Config{
		Cluster: c, Jobs: []*workload.Job{j}, Scheduler: &copyCapScheduler{},
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "already has 4 copies") {
		t.Fatalf("want copy-cap error, got %v", err)
	}
}

func TestPhaseStatsFallbackAndObservation(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(2, 4))
	j := workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "a", Tasks: 2, Demand: resources.Cores(1, 1), MeanDuration: 5, SDDuration: 2},
		{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 3},
	})
	// Observed stats are released when the job completes (a long-lived
	// online engine must not retain them per job ever finished), so the
	// post-observation check runs at the job's TraceJobDone, while the
	// job is still live.
	// The fallback is read at the job's TraceArrive: the job has its
	// record and has placed nothing. Before that it is not there yet.
	var hookMean, arriveMean, arriveSD float64
	var hookN, arriveN int
	cfg := Config{Cluster: c, Jobs: []*workload.Job{j}, Scheduler: Greedy{}, Deterministic: true}
	var e *Engine
	cfg.Observe = func(o *Observation) {
		switch o.Kind {
		case TraceArrive:
			arriveMean, arriveSD, arriveN = e.PhaseStats(1, 0)
		case TraceJobDone:
			hookMean, _, hookN = e.PhaseStats(1, 0)
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mean, sd, n := e.PhaseStats(1, 0); mean != 0 || sd != 0 || n != 0 {
		t.Fatalf("stats of a job not yet arrived: %v %v %d", mean, sd, n)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arriveMean != 5 || arriveSD != 2 || arriveN != 0 {
		t.Fatalf("fallback stats: %v %v %d", arriveMean, arriveSD, arriveN)
	}
	if hookN != 2 || hookMean != 5 {
		t.Fatalf("observed stats at completion: mean=%v n=%d", hookMean, hookN)
	}
	if _, _, n := e.PhaseStats(1, 0); n != 0 {
		t.Fatal("completed job's stats should be released")
	}
	if _, _, n := e.PhaseStats(99, 0); n != 0 {
		t.Fatal("unknown job stats should be zero")
	}
}

func TestTransferPenaltyCrossRack(t *testing.T) {
	// Two racks; map runs on rack 0; reduce forced cross-rack pays the
	// penalty.
	specs := []cluster.Spec{
		{Name: "r0", Capacity: resources.Cores(1, 2), Speed: 1, Rack: 0},
		{Name: "r1", Capacity: resources.Cores(1, 2), Speed: 1, Rack: 1},
	}
	mk := func() *cluster.Cluster {
		c, err := cluster.New(specs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	job := func() *workload.Job {
		return workload.Chain(1, "mr", "t", 0, []workload.Phase{
			{Name: "map", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
			{Name: "reduce", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
		})
	}
	// greedy places both phases on server 0 (first fit): same rack, no
	// penalty.
	e1, err := New(Config{Cluster: mk(), Jobs: []*workload.Job{job()}, Scheduler: Greedy{},
		Deterministic: true, TransferPenalty: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != 8 {
		t.Fatalf("same-rack makespan: %d", r1.Makespan)
	}
	// Force reduce onto rack 1.
	e2, err := New(Config{Cluster: mk(), Jobs: []*workload.Job{job()},
		Scheduler: &rackForcer{}, Deterministic: true, TransferPenalty: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != 11 { // 4 + (4+3)
		t.Fatalf("cross-rack makespan: %d", r2.Makespan)
	}
}

// rackForcer puts the map phase on server 0 and the reduce on server 1.
type rackForcer struct{}

func (rackForcer) Name() string { return "rackforcer" }
func (rackForcer) Schedule(ctx sched.Context) []sched.Placement {
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			server := cluster.ServerID(0)
			if pt.Ref.Phase == 1 {
				server = 1
			}
			if pt.Demand.Fits(ctx.Cluster().Server(server).Free()) {
				return []sched.Placement{{Ref: pt.Ref, Server: server}}
			}
		}
	}
	return nil
}

func TestResultHelpers(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 2), SingleTaskJob(2, 1, 4)}
	res := runDet(t, c, jobs, Greedy{})
	if got := res.Flowtimes(); len(got) != 2 {
		t.Fatal("flowtimes")
	}
	if got := res.RunningTimes(); len(got) != 2 {
		t.Fatal("running times")
	}
	if res.FlowtimeECDF().N() != 2 || res.RunningTimeECDF().N() != 2 {
		t.Fatal("ecdfs")
	}
	cum := res.CumulativeFlowtime()
	if len(cum) != 2 || cum[1].Y != float64(res.TotalFlowtime()) {
		t.Fatalf("cumulative: %+v", cum)
	}
	if cum[0].X > cum[1].X {
		t.Fatal("cumulative not sorted by arrival")
	}
	if res.MeanFlowtime() != float64(res.TotalFlowtime())/2 {
		t.Fatal("mean flowtime")
	}
	if res.SchedCalls == 0 {
		t.Fatal("scheduling calls not counted")
	}
	if res.AvgUtilization <= 0 || res.AvgUtilization > 1 {
		t.Fatalf("utilization: %v", res.AvgUtilization)
	}
}

func TestMaxSlotsGuard(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	j := SingleTaskJob(1, 0, 100)
	e, err := New(Config{Cluster: c, Jobs: []*workload.Job{j}, Scheduler: Greedy{},
		Deterministic: true, MaxSlots: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error, got %v", err)
	}
}

// TestTimelineRecording samples the engine at every TraceAdvance: one
// point per interval between events, in slot order.
func TestTimelineRecording(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 4), SingleTaskJob(2, 0, 4)}
	_, tl := runTimeline(t, Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true})
	// [0, 4) holds two active jobs, one running copy and the whole CPU;
	// [4, 8) the second job alone.
	want := []timelinePoint{
		{Slot: 0, ActiveJobs: 2, RunningCopies: 1, UtilizationCPU: 1, UtilizationMem: 1},
		{Slot: 4, ActiveJobs: 1, RunningCopies: 1, UtilizationCPU: 1, UtilizationMem: 1},
	}
	if !reflect.DeepEqual(tl, want) {
		t.Fatalf("timeline %+v, want %+v", tl, want)
	}
}
