package core

import (
	"dollymp/internal/estimate"
	"dollymp/internal/sched"
)

// EstimatorOf exposes the scheduler's estimator to black-box tests that
// pin the exactly-once Record folding contract.
func EstimatorOf(s *Scheduler) *estimate.Estimator { return s.estimator }

// FitStatsOf exposes the work counts of the scheduler's fit index to
// black-box tests; zero before the first Schedule call.
func FitStatsOf(s *Scheduler) sched.FitStats {
	if s.scratch.ft == nil {
		return sched.FitStats{}
	}
	return sched.FitStatsOf(s.scratch.ft)
}
