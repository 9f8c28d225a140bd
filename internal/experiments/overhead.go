package experiments

import (
	"fmt"
	"io"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// OverheadResult holds the §6.3.3 scheduling-overhead measurement:
// computing the DollyMP scheduling decision (knapsack priorities plus
// ordering) for 1K jobs against a 30K-machine fleet. The paper reports
// <50 ms on a laptop-class core.
type OverheadResult struct {
	Jobs    int
	Servers int
	// PriorityTime is the Algorithm 1 run (volumes, knapsacks, order)
	// over all jobs — the per-arrival recomputation cost.
	PriorityTime time.Duration
	// DecisionTime is one full Schedule() placement round on the fleet.
	DecisionTime time.Duration
	// Placements is the number of containers granted in that round.
	Placements int
}

// staticContext is a frozen decision point over a queued workload: the
// state the Resource Manager sees when it recomputes priorities.
type staticContext struct {
	fleet *cluster.Cluster
	jobs  []*workload.JobState
}

func (s *staticContext) Now() int64                { return 0 }
func (s *staticContext) Cluster() *cluster.Cluster { return s.fleet }
func (s *staticContext) Jobs() []*workload.JobState {
	return s.jobs
}
func (s *staticContext) Copies(workload.TaskRef) []sched.CopyStatus          { return nil }
func (s *staticContext) CloneUsage() resources.Vector                        { return resources.Vector{} }
func (s *staticContext) Allocation(workload.JobID) resources.Vector          { return resources.Vector{} }
func (s *staticContext) ObservedServerSpeed(cluster.ServerID) (float64, int) { return 1, 0 }
func (s *staticContext) PhaseOutputRack(workload.JobID, workload.PhaseID) (int, bool) {
	return 0, false
}
func (s *staticContext) PhaseStats(id workload.JobID, k workload.PhaseID) (float64, float64, int) {
	for _, js := range s.jobs {
		if js.Job.ID == id {
			ph := &js.Job.Phases[k]
			return ph.MeanDuration, ph.SDDuration, 0
		}
	}
	return 0, 0, 0
}

// Overhead measures the decision cost §6.3.3 reports, 1K jobs on 30K
// machines; a scale below the paper's job counts (JobFactor < 1)
// measures 200 jobs on 3 000 servers.
func Overhead(sc Scale) (*OverheadResult, error) {
	nJobs, servers := 1000, 30000
	if sc.JobFactor < 1 {
		nJobs, servers = 200, 3000
	}
	fleet := cluster.LargeFleet(servers, sc.Seed)
	rng := stats.NewRNG(sc.Seed)
	jobs := make([]*workload.JobState, nJobs)
	for i := range jobs {
		j := &workload.Job{
			ID: workload.JobID(i), Name: fmt.Sprintf("q-%d", i), App: "bench",
			Phases: []workload.Phase{{
				Name:  "p",
				Tasks: 1 + rng.Intn(50),
				Demand: resources.Vec(500+int64(rng.Intn(1500)),
					1024+int64(rng.Intn(3072))),
				MeanDuration: rng.Range(4, 40),
				SDDuration:   rng.Range(1, 30),
			}},
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs[i] = workload.NewJobState(j)
	}
	ctx := &staticContext{fleet: fleet, jobs: jobs}
	s := core.MustNew()

	// Priority recomputation (the per-arrival cost the paper reports).
	start := time.Now()
	s.RecomputePriorities(ctx)
	prio := time.Since(start)

	// One full placement round across the fleet.
	start = time.Now()
	placements := s.Schedule(ctx)
	decide := time.Since(start)

	return &OverheadResult{
		Jobs:         nJobs,
		Servers:      servers,
		PriorityTime: prio,
		DecisionTime: decide,
		Placements:   len(placements),
	}, nil
}

// Write renders the measurement.
func (r *OverheadResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Scheduling overhead (§6.3.3): %d jobs, %d servers\n"+
			"  priority recomputation (Algorithm 1): %v\n"+
			"  full placement round (%d containers): %v\n",
		r.Jobs, r.Servers, r.PriorityTime, r.Placements, r.DecisionTime)
	return err
}
