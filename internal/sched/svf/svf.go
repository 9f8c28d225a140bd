// Package svf implements Smallest Volume First scheduling: jobs with the
// smallest remaining effective volume (dominant share × effective time,
// Eq. 10/16) run first (§4.2). SVF balances processing time against
// resource demand but can starve large jobs — the long-run weakness §4.2
// identifies and DollyMP's per-class knapsack fixes.
package svf

import (
	"dollymp/internal/cluster"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the SVF policy. The zero value is ready to use.
type Scheduler struct {
	// R is the variance factor in e = θ + R·σ.
	R float64
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "svf" }

// Schedule places tasks of jobs in increasing remaining-volume order,
// best-fit across servers, no cloning.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	total := ctx.Cluster().Total()
	ft := sched.NewFitTracker(ctx.Cluster())
	bestFit := func(pt sched.PendingTask) (cluster.ServerID, bool) { return ft.BestFit(pt.Demand) }
	var out []sched.Placement
	for _, js := range sched.OrderBy(ctx.Jobs(), func(js *workload.JobState) float64 {
		return sched.RemainingVolume(js, total, s.R)
	}) {
		out = sched.PlaceJob(ft, sched.NewJobCursor(js), bestFit, out)
	}
	return out
}
