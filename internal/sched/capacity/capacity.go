// Package capacity models YARN's Capacity Scheduler (the paper's default
// baseline): FIFO container allocation in arrival order, plus a LATE-style
// speculative-execution mechanism that launches a single backup copy for
// a task observed to run much slower than its phase's completed tasks.
// The mechanism reproduces the defect §2 attributes to it — backups
// launch late, only after enough samples accumulate, so they help little
// for small jobs.
package capacity

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the Capacity Scheduler baseline.
type Scheduler struct {
	// Speculation enables LATE-style backup copies (YARN's default).
	Speculation bool
	// SlowdownThreshold: a running task is a straggler once its elapsed
	// time exceeds this multiple of the phase's observed mean completed
	// duration. Default 1.5.
	SlowdownThreshold float64
	// MinSamples is the number of completed tasks required in a phase
	// before speculation may trigger — the sampling requirement that
	// makes speculation useless for small jobs. Default 3.
	MinSamples int
}

// Default returns the scheduler with YARN-like defaults.
func Default() *Scheduler {
	return &Scheduler{Speculation: true, SlowdownThreshold: 1.5, MinSamples: 3}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "capacity" }

func (s *Scheduler) params() (float64, int) {
	th := s.SlowdownThreshold
	if th <= 0 {
		th = 1.5
	}
	ms := s.MinSamples
	if ms <= 0 {
		ms = 3
	}
	return th, ms
}

// Schedule places pending tasks FIFO first-fit, then — best effort, with
// whatever capacity is left — launches backup copies for detected
// stragglers.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	ft := sched.NewFitTracker(ctx.Cluster())
	fit := func(pt sched.PendingTask) (cluster.ServerID, bool) { return firstFit(ft, ctx.Cluster(), pt.Demand) }
	var out []sched.Placement
	// FIFO pass: ctx.Jobs() is already in arrival order.
	for _, js := range ctx.Jobs() {
		out = sched.PlaceJob(ft, sched.NewJobCursor(js), fit, out)
	}
	if !s.Speculation {
		return out
	}
	threshold, minSamples := s.params()
	rules := sched.CopyRules{Copies: 2, Due: func(ref workload.TaskRef) bool {
		return sched.Straggling(ctx, ref, threshold, minSamples)
	}}
	var copies sched.CopyWalk
	return copies.Grant(ctx, ft, sched.Cursors(ctx.Jobs()), rules, nil, out)
}

// firstFit returns the first server in fleet order that d fits.
func firstFit(ft *sched.FitTracker, c *cluster.Cluster, d resources.Vector) (cluster.ServerID, bool) {
	for _, srv := range c.Servers() {
		if ft.Fits(srv.ID, d) {
			return srv.ID, true
		}
	}
	return 0, false
}
