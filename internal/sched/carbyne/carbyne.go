// Package carbyne approximates the Carbyne scheduler (Grandl et al.,
// OSDI '16), the paper's state-of-the-art baseline. Carbyne gives every
// job its inter-job fair share (DRF) but lets jobs be altruistic: a job
// claims only the resources it needs to hold its estimated completion
// time, and the leftover is redistributed to tasks that most improve
// average completion time and packing.
//
// This implementation keeps the two-level structure: pass 1 grants each
// active job tasks up to its DRF fair share; pass 2 redistributes the
// leftover to jobs in shortest-remaining-time order with best-fit
// packing (the JCT/packing redistribution heuristic of the Carbyne
// paper, simplified).
package carbyne

import (
	"dollymp/internal/cluster"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the Carbyne policy.
type Scheduler struct {
	// R is the variance factor for remaining-time estimates.
	R float64
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "carbyne" }

// Schedule runs the fair-share pass followed by the altruistic leftover
// pass.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	ft := sched.NewFitTracker(ctx.Cluster())

	// Pass 1: lowest dominant share first, up to the fair share — an
	// equal split of the cluster across active jobs, the DRF equilibrium
	// for equally weighted jobs. A job at or above it is altruistic.
	out, cursors, blocked := sched.GrantByShare(ctx, ft, 1/float64(len(jobs)))

	// Pass 2: leftover redistribution, shortest remaining time first.
	var open []*workload.JobState
	for _, js := range jobs {
		if !blocked[js.Job.ID] && !cursors[js.Job.ID].Exhausted() {
			open = append(open, js)
		}
	}
	bestFit := func(pt sched.PendingTask) (cluster.ServerID, bool) { return ft.BestFit(pt.Demand) }
	for _, js := range sched.OrderBy(open, func(js *workload.JobState) float64 {
		return sched.RemainingTime(js, s.R)
	}) {
		out = sched.PlaceJob(ft, cursors[js.Job.ID], bestFit, out)
	}
	return out
}
