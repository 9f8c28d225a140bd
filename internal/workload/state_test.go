package workload

import (
	"math"
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
	if !s.phaseDone[0] || !s.PhaseReady(1) {
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
