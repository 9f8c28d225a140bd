package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
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
		e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: greedy{},
			Deterministic: true, Paranoid: true})
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
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
		singleTaskJob(1, 0, 4),
		singleTaskJob(2, 3, 6),
		singleTaskJob(3, 5, 2),
	}
	res, tl := runTimeline(t, Config{Cluster: c, Jobs: jobs, Scheduler: greedy{}, Deterministic: true})
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

// A job that holds no copy must be tracked as holding nothing. The check
// used to compare tracked allocations only for jobs it found live copies
// of, so a leak on a job whose copies were all gone went unseen.
func TestParanoidCatchesLeakOnCopylessJob(t *testing.T) {
	// One core: job 1 runs, job 2 has arrived and waits without a copy.
	e, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(1, 1)), Scheduler: greedy{},
		Jobs:          []*workload.Job{singleTaskJob(1, 0, 5), singleTaskJob(2, 0, 5)},
		Deterministic: true, Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if got := e.Allocation(2); !got.IsZero() {
		t.Fatalf("job 2 waits without a copy but holds %v", got)
	}
	if err := e.checkInvariants(); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	if !e.SetTrackedAllocation(2, resources.Cores(1, 1)) {
		t.Fatal("job 2 is not live")
	}
	if err := e.checkInvariants(); err == nil {
		t.Fatal("a leaked allocation on a job without copies passed the invariant check")
	}
}
