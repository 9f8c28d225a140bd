package sched

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

func testJob() *workload.JobState {
	j := workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "map", Tasks: 3, Demand: resources.Cores(1, 2), MeanDuration: 5},
		{Name: "reduce", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: 4},
	})
	return workload.NewJobState(j)
}

func TestReadyPendingTasks(t *testing.T) {
	js := testJob()
	tasks := ReadyPendingTasks(js)
	if len(tasks) != 3 {
		t.Fatalf("only map tasks should be ready: %v", tasks)
	}
	for i, pt := range tasks {
		if pt.Ref.Phase != 0 || pt.Ref.Index != i || pt.Demand != resources.Cores(1, 2) {
			t.Fatalf("task %d: %+v", i, pt)
		}
	}
	// Finish map; reduce becomes ready.
	for l := 0; l < 3; l++ {
		if err := js.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	tasks = ReadyPendingTasks(js)
	if len(tasks) != 2 || tasks[0].Ref.Phase != 1 {
		t.Fatalf("reduce tasks: %v", tasks)
	}
}

// TestFreshCursorHead: a fresh cursor's head is the job's first pending
// task of a ready phase, and a done job's fresh cursor is exhausted — the
// test YARN's clone pass makes of each job.
func TestFreshCursorHead(t *testing.T) {
	js := testJob()
	pt, ok := NewJobCursor(js).Peek()
	if !ok || pt.Ref.Phase != 0 || pt.Ref.Index != 0 {
		t.Fatalf("first: %+v ok=%v", pt, ok)
	}
	js.MarkRunning(0, 0)
	pt, ok = NewJobCursor(js).Peek()
	if !ok || pt.Ref.Index != 1 {
		t.Fatalf("after running: %+v", pt)
	}
	for l := 0; l < 3; l++ {
		if err := js.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < 2; l++ {
		if err := js.MarkDone(1, l); err != nil {
			t.Fatal(err)
		}
	}
	if !NewJobCursor(js).Exhausted() {
		t.Fatal("done job should have no pending task")
	}
}

func twoServers(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New([]cluster.Spec{
		{Name: "small", Capacity: resources.Cores(2, 4), Speed: 1},
		{Name: "big", Capacity: resources.Cores(16, 32), Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFitTracker(t *testing.T) {
	c := twoServers(t)
	ft := NewFitTracker(c)
	if got := ft.Free(0); got != resources.Cores(2, 4) {
		t.Fatalf("free: %v", got)
	}
	if !ft.Place(0, resources.Cores(2, 4)) {
		t.Fatal("place should succeed")
	}
	if ft.Place(0, resources.Cores(1, 1)) {
		t.Fatal("server 0 is tentatively full")
	}
	if got := ft.Free(0); !got.IsZero() {
		t.Fatalf("free after fill: %v", got)
	}
	// The underlying cluster is untouched.
	if got := c.Server(0).Free(); got != resources.Cores(2, 4) {
		t.Fatalf("cluster mutated: %v", got)
	}
	// TotalFree accounts for tentative placements.
	want := c.TotalFree().Sub(resources.Cores(2, 4))
	if got := ft.TotalFree(); got != want {
		t.Fatalf("total free: %v want %v", got, want)
	}
	// BestFit now only finds server 1.
	id, ok := ft.BestFit(resources.Cores(1, 1))
	if !ok || id != 1 {
		t.Fatalf("best fit after fill: %d", id)
	}
	if _, ok := ft.BestFit(resources.Cores(64, 64)); ok {
		t.Fatal("oversize should not fit")
	}
}

func TestRemainingHelpers(t *testing.T) {
	js := testJob()
	total := resources.Cores(100, 200)
	if got := RemainingVolume(js, total, 0); got <= 0 {
		t.Fatalf("volume: %v", got)
	}
	if got := RemainingTime(js, 0); got != 9 {
		t.Fatalf("time: %v", got)
	}
}
