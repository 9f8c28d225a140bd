// Package srpt implements Shortest Remaining Processing Time scheduling:
// jobs with the smallest remaining critical-path length run first (§4.2).
// SRPT is optimal for identical machines with homogeneous demands but
// ignores resource shape, so it fragments multi-resource clusters — the
// weakness DollyMP's knapsack blend addresses.
package srpt

import (
	"dollymp/internal/cluster"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the SRPT policy. The zero value is ready to use.
type Scheduler struct {
	// R is the variance factor in e = θ + R·σ. Zero means pure means.
	R float64
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "srpt" }

// Schedule places tasks of jobs in increasing remaining-time order,
// best-fit across servers, no cloning.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	ft := sched.NewFitTracker(ctx.Cluster())
	bestFit := func(pt sched.PendingTask) (cluster.ServerID, bool) { return ft.BestFit(pt.Demand) }
	var out []sched.Placement
	for _, js := range sched.OrderBy(ctx.Jobs(), func(js *workload.JobState) float64 {
		return sched.RemainingTime(js, s.R)
	}) {
		out = sched.PlaceJob(ft, sched.NewJobCursor(js), bestFit, out)
	}
	return out
}
