package sim_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// Property: in deterministic mode with a known fastest server, no job
// can finish faster than its critical path divided by the maximum
// speed, and its flowtime is at least its running time.
func TestRunningTimeLowerBoundProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		const maxSpeed = 1.5
		c, err := cluster.New([]cluster.Spec{
			{Name: "fast", Capacity: resources.Cores(16, 32), Speed: maxSpeed},
			{Name: "slow", Capacity: resources.Cores(16, 32), Speed: 1},
		})
		if err != nil {
			return false
		}
		jobs := make([]*workload.Job, len(raw))
		for i, v := range raw {
			phases := []workload.Phase{
				{Name: "a", Tasks: 1 + int(v%3), Demand: resources.Cores(1, 2),
					MeanDuration: float64(v%17) + 1},
				{Name: "b", Tasks: 1, Demand: resources.Cores(2, 4),
					MeanDuration: float64(v%7) + 1},
			}
			jobs[i] = workload.Chain(workload.JobID(i), "p", "t", int64(i), phases)
		}
		e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{},
			Deterministic: true})
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil || cert.Close() != nil {
			return false
		}
		by := res.ByJobID()
		for _, j := range jobs {
			m := by[j.ID]
			lb := int64(math.Floor(j.CriticalPathLength(0) / maxSpeed))
			if m.RunningTime < lb {
				return false
			}
			if m.Flowtime < m.RunningTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The utilization integral reported by AvgUtilization must agree with
// the step integral of a timeline sampled at every TraceAdvance.
func TestUtilizationMatchesTimeline(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(2, 4))
	jobs := []*workload.Job{
		SingleTaskJob(1, 0, 4),
		SingleTaskJob(2, 3, 6),
		SingleTaskJob(3, 5, 2),
	}
	res, tl := runTimeline(t, Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true})
	// Step-integrate the timeline over [0, makespan].
	var cpuInt, memInt float64
	for i, p := range tl {
		end := res.Makespan
		if i+1 < len(tl) {
			end = tl[i+1].Slot
		}
		dt := float64(end - p.Slot)
		cpuInt += p.UtilizationCPU * dt
		memInt += p.UtilizationMem * dt
	}
	want := (cpuInt + memInt) / (2 * float64(res.Makespan))
	if math.Abs(res.AvgUtilization-want) > 1e-9 {
		t.Fatalf("avg utilization %v vs timeline integral %v", res.AvgUtilization, want)
	}
}

// requireDrift runs a cloned workload on one server to slot 3, where
// three jobs wait without a copy, lets plant make the engine's state
// drift from its copies, and requires the stream to report want at the
// next clock advance, which leaves slot 3.
func requireDrift(t *testing.T, plant func(e *Engine), want string) {
	t.Helper()
	jobs := make([]*workload.Job, 6)
	for i := range jobs {
		jobs[i] = SingleTaskJob(workload.JobID(i+1), int64(i), 4)
	}
	requireDriftAt(t, jobs, 3, plant, want)
}

// requireDriftAt runs jobs cloned on one server of two cores to slot
// at, lets plant make the engine's state drift, and requires the stream
// to report want at the clock advance that leaves slot at.
func requireDriftAt(t *testing.T, jobs []*workload.Job, at int64, plant func(e *Engine), want string) {
	t.Helper()
	e, cert, err := verify.New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(2, 8)), Scheduler: Cloner{},
		Jobs: jobs, Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < at {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cert.Close(); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	plant(e)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if err := cert.Close(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at slot %d: %s", at, want)) {
		t.Fatalf("got %v, want the drift reported at slot %d naming %q", err, at, want)
	}
}

// TestStreamCatchesDrift plants drift mid-run in each quantity the
// stream compares with the engine: a server's use, the clone use, a
// task's live-copy count and its copy list.
func TestStreamCatchesDrift(t *testing.T) {
	t.Run("server use", func(t *testing.T) {
		requireDrift(t, func(e *Engine) {
			if err := e.Cluster().Allocate(0, resources.Cores(0, 1)); err != nil {
				t.Fatal(err)
			}
		}, "server 0")
	})
	t.Run("clone use", func(t *testing.T) {
		requireDrift(t, func(e *Engine) { e.SetCloneUsage(resources.Cores(2, 2)) }, "the engine reports clone use")
	})
	t.Run("live copies", func(t *testing.T) {
		requireDrift(t, func(e *Engine) {
			js := e.Jobs()[1]
			if js.Job.ID != 2 || js.Task(0, 0) != workload.TaskPending {
				t.Fatalf("job %d is not job 2 waiting", js.Job.ID)
			}
			js.MarkRunning(0, 0)
		}, "task j2/p0/t0")
	})
	t.Run("killed sibling linked", func(t *testing.T) {
		// Task 0 runs twice from slot 0 and wins at slot 4, killing its
		// sibling; task 1 then takes both cores, so the job stays live.
		// MarkRunning is a no-op on the done task that moves the job's
		// Version, as the completion that left the sibling linked did.
		job := SingleTaskJob(1, 0, 4)
		job.Phases[0].Tasks = 2
		requireDriftAt(t, []*workload.Job{job}, 4, func(e *Engine) {
			ref := workload.TaskRef{Job: 1, Phase: 0, Index: 0}
			if e.Copies(ref) != nil || !e.LinkKilledCopy(ref, 0) {
				t.Fatal("task j1/p0/t0 is not done in a live job")
			}
			e.Jobs()[0].MarkRunning(0, 0)
		}, "task j1/p0/t0: the engine lists copies")
	})
}

// A job that holds no copy must be tracked as holding nothing. The check
// used to compare tracked allocations only for jobs it found live copies
// of, so a leak on a job whose copies were all gone went unseen.
func TestParanoidCatchesLeakOnCopylessJob(t *testing.T) {
	requireDrift(t, func(e *Engine) {
		if got := e.Allocation(2); !got.IsZero() {
			t.Fatalf("job 2 waits without a copy but holds %v", got)
		}
		if !e.SetTrackedAllocation(2, resources.Cores(1, 1)) {
			t.Fatal("job 2 is not live")
		}
	}, "job 2")
}
