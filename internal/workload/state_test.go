package workload

import (
	"math"
	"math/rand"
	"testing"

	"dollymp/internal/resources"
)

func TestJobStateLifecycle(t *testing.T) {
	j := mapReduce(1, 0)
	s := NewJobState(j)

	if s.Done() {
		t.Fatal("new job should not be done")
	}
	if !s.PhaseReady(0) {
		t.Fatal("root phase should be ready")
	}
	if s.PhaseReady(1) {
		t.Fatal("reduce should wait for map")
	}
	if got := s.ReadyPhases(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ready phases: %v", got)
	}
	if got := len(s.PendingTasks(0)); got != 4 {
		t.Fatalf("pending: %d", got)
	}

	s.MarkRunning(0, 0)
	if s.Task(0, 0) != TaskRunning {
		t.Fatal("task should be running")
	}
	if got := len(s.PendingTasks(0)); got != 3 {
		t.Fatalf("pending after run: %d", got)
	}
	if got := s.RunningTasks(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("running: %v", got)
	}

	for l := 0; l < 4; l++ {
		if err := s.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if !s.phases[0].complete || !s.PhaseReady(1) {
		t.Fatal("map done should unlock reduce")
	}
	if s.Done() {
		t.Fatal("job not done until reduce completes")
	}
	if err := s.MarkDone(0, 0); err == nil {
		t.Fatal("double completion should error")
	}

	for l := 0; l < 2; l++ {
		if err := s.MarkDone(1, l); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatal("job should be done")
	}
	if got := s.ReadyPhases(); len(got) != 0 {
		t.Fatalf("done job has ready phases: %v", got)
	}
}

func TestUpdatedVolumeShrinks(t *testing.T) {
	total := resources.Cores(100, 200)
	j := mapReduce(1, 0)
	s := NewJobState(j)
	v0 := s.UpdatedVolume(total, 1.5)
	if math.Abs(v0-j.EffectiveVolume(total, 1.5)) > 1e-12 {
		t.Fatalf("initial volume must equal static volume: %v vs %v", v0, j.EffectiveVolume(total, 1.5))
	}
	if err := s.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	v1 := s.UpdatedVolume(total, 1.5)
	if v1 >= v0 {
		t.Fatalf("volume must shrink after completion: %v -> %v", v0, v1)
	}
	// One map task's contribution: e=13, d=0.01.
	if math.Abs(v0-v1-0.13) > 1e-12 {
		t.Errorf("shrink amount: %v", v0-v1)
	}
}

func TestUpdatedProcessingTime(t *testing.T) {
	j := mapReduce(1, 0)
	s := NewJobState(j)
	e0 := s.UpdatedProcessingTime(1.5)
	if math.Abs(e0-20.5) > 1e-12 {
		t.Fatalf("initial e: %v", e0)
	}
	for l := 0; l < 4; l++ {
		if err := s.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	e1 := s.UpdatedProcessingTime(1.5)
	if math.Abs(e1-7.5) > 1e-12 {
		t.Fatalf("after map: %v", e1)
	}
	// Finishing only part of a phase does not shorten the critical path.
	j2 := mapReduce(2, 0)
	s2 := NewJobState(j2)
	if err := s2.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := s2.UpdatedProcessingTime(1.5); math.Abs(got-20.5) > 1e-12 {
		t.Errorf("partial phase should keep cp: %v", got)
	}
}

func TestFlowAndRunningTime(t *testing.T) {
	j := mapReduce(1, 10)
	s := NewJobState(j)
	if s.Flowtime() != -1 || s.RunningTime() != -1 {
		t.Fatal("unfinished job must report -1")
	}
	s.FirstStart = 15
	s.Finish = 40
	if got := s.Flowtime(); got != 30 {
		t.Errorf("flowtime: %d", got)
	}
	if got := s.RunningTime(); got != 25 {
		t.Errorf("running: %d", got)
	}
}

func TestRemainingTasks(t *testing.T) {
	j := mapReduce(1, 0)
	s := NewJobState(j)
	if got := s.RemainingTasks(0); got != 4 {
		t.Fatalf("remaining: %d", got)
	}
	if err := s.MarkDone(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.RemainingTasks(0); got != 3 {
		t.Fatalf("remaining: %d", got)
	}
}

func TestMarkRunningIdempotentOnDone(t *testing.T) {
	j := SingleTask(1, 0, resources.Cores(1, 1), 5, 0)
	s := NewJobState(j)
	if err := s.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	s.MarkRunning(0, 0) // must not resurrect a done task
	if s.Task(0, 0) != TaskDone {
		t.Fatal("MarkRunning must not override done")
	}
}

// stateSink keeps an allocation count's result reachable, so the
// compiler cannot place it on the stack.
var stateSink *JobState

// TestNewJobStateAllocs pins what a job's scheduling state costs to
// make, whatever its phase count: the JobState, its phase array and the
// task cells. Running the job to completion, critical path included,
// adds only the running lists' one backing array.
func TestNewJobStateAllocs(t *testing.T) {
	j := dag(1, [][]PhaseID{nil, {0}, {0}, {1, 2}})
	got := testing.AllocsPerRun(100, func() { stateSink = NewJobState(j) })
	t.Logf("NewJobState of a %d-phase job: %v allocations", len(j.Phases), got)
	// Six per-phase slices and one cell slice per phase made this 11 (a
	// two-phase job 9).
	if got > 3 {
		t.Fatalf("NewJobState allocates %v objects, want at most 3", got)
	}
	lifecycle := testing.AllocsPerRun(100, func() {
		s := NewJobState(j)
		for _, k := range []PhaseID{0, 2, 1, 3} {
			s.UpdatedProcessingTime(1.5)
			s.MarkRunning(k, 0)
			s.MarkRunning(k, 0)
			if err := s.MarkDone(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		stateSink = s
	})
	if lifecycle > 4 {
		t.Fatalf("a job's lifecycle allocates %v objects, want at most 4", lifecycle)
	}
	if !stateSink.Done() {
		t.Fatal("the lifecycle did not finish the job")
	}
}

// TestPhaseOrderMatchesTopoOrder: the order the critical-path walk
// builds in place is TopoOrder's, on random DAGs with and without a back
// edge, so Eq. (17) on a fresh state is CriticalPathLength to the bit.
func TestPhaseOrderMatchesTopoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(40)
		label := rng.Perm(n)
		parents := make([][]PhaseID, n)
		for k := 1; k < n; k++ {
			for e := rng.Intn(4); e > 0; e-- {
				parents[label[k]] = append(parents[label[k]], PhaseID(label[rng.Intn(k)]))
			}
		}
		if trial%3 == 2 {
			a := rng.Intn(n - 1)
			b := a + 1 + rng.Intn(n-1-a)
			parents[label[a]] = append(parents[label[a]], PhaseID(label[b]))
		}
		j := dag(JobID(trial), parents)
		for k := range j.Phases {
			j.Phases[k].MeanDuration = 1 + rng.Float64()*20
			j.Phases[k].SDDuration = rng.Float64() * 5
		}
		s := NewJobState(j)
		got := s.UpdatedProcessingTime(1.5)
		order, err := j.TopoOrder()
		if err != nil {
			if !s.cyclic || got != 0 {
				t.Fatalf("trial %d: cyclic DAG, yet cyclic=%v and critical path %v", trial, s.cyclic, got)
			}
			continue
		}
		for i, k := range order {
			if PhaseID(s.phases[i].order) != k {
				t.Fatalf("trial %d: order[%d] = %d, TopoOrder has %d", trial, i, s.phases[i].order, k)
			}
		}
		if want := j.CriticalPathLength(1.5); got != want {
			t.Fatalf("trial %d: critical path %v, CriticalPathLength %v", trial, got, want)
		}
	}
}
