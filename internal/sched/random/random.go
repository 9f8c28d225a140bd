// Package random is the sanity-check baseline: pending tasks are placed
// FIFO on a uniformly random fitting server, with no priorities, no
// packing heuristic, and no cloning. Any scheduler that fails to beat it
// on a non-trivial workload is broken; papers (and this reproduction)
// use it to calibrate how much headroom a policy actually exploits.
package random

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
)

// Scheduler is the random-placement policy. Construct with New so runs
// stay reproducible per seed.
type Scheduler struct {
	rng *stats.RNG
}

// New builds the scheduler with a deterministic seed.
func New(seed uint64) *Scheduler {
	return &Scheduler{rng: stats.NewRNG(seed)}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "random" }

// Schedule places each job's pending tasks FIFO onto random fitting
// servers until nothing more fits.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	ft := sched.NewFitTracker(ctx.Cluster())
	fit := func(pt sched.PendingTask) (cluster.ServerID, bool) { return s.randomFit(ctx.Cluster(), ft, pt.Demand) }
	var out []sched.Placement
	for _, js := range ctx.Jobs() {
		out = sched.PlaceJob(ft, sched.NewJobCursor(js), fit, out)
	}
	return out
}

// randomFit scans the fleet from a random starting position and returns
// the first fitting server, giving a uniform-ish spread without O(n)
// fits per draw in the common case.
func (s *Scheduler) randomFit(c *cluster.Cluster, ft *sched.FitTracker, d resources.Vector) (cluster.ServerID, bool) {
	n := c.Len()
	start := s.rng.Intn(n)
	for i := 0; i < n; i++ {
		if id := cluster.ServerID((start + i) % n); ft.Fits(id, d) {
			return id, true
		}
	}
	return 0, false
}
