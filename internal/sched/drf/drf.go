// Package drf implements Dominant Resource Fairness (Ghodsi et al.,
// NSDI '11), the multi-resource fair scheduler the paper compares
// against: resources are repeatedly offered to the job whose dominant
// share of currently allocated resources is furthest below its fair
// share.
package drf

import (
	"math"

	"dollymp/internal/sched"
)

// Scheduler is the DRF policy. The zero value is ready to use.
type Scheduler struct{}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "drf" }

// Schedule repeatedly grants one task to the active job with the lowest
// dominant share until nothing more fits.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	out, _, _ := sched.GrantByShare(ctx, sched.NewFitTracker(ctx.Cluster()), math.Inf(1))
	return out
}
