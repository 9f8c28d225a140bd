package sched_test

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/carbyne"
	"dollymp/internal/sched/drf"
	"dollymp/internal/sched/srpt"
	"dollymp/internal/sched/svf"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/trace"
	"dollymp/internal/yarn"
)

// TestBaselinesPackedGolden pins every scheduler that shares the fit
// index on a packed fleet: 300 Google-like jobs all queued at slot 0 on
// the 30-node testbed, where most BestFit queries of a call miss. The
// other goldens run at light load (BENCH_sweep.json: 3–12 %
// utilisation) or check run-over-run equality only, so a fit-index
// change that altered a baseline's packed schedule would pass them. The
// constants were recorded on the commit before the tracker learned from
// its misses.
func TestBaselinesPackedGolden(t *testing.T) {
	jobs := trace.DefaultGoogleLike(300, 1.0, 7).Generate()
	for _, j := range jobs {
		j.Arrival = 0
	}
	for _, tc := range []struct {
		name               string
		s                  sched.Scheduler
		flowtime, makespan int64
		calls              int
	}{
		{"capacity", capacity.Default(), 16127, 174, 217},
		{"drf", &drf.Scheduler{}, 14668, 221, 223},
		{"tetris", &tetris.Scheduler{R: 1.5}, 17537, 318, 228},
		{"tetris-clones", &tetris.Scheduler{R: 1.5, MaxClones: 1}, 16738, 131, 204},
		{"carbyne", &carbyne.Scheduler{R: 1.5}, 14922, 344, 240},
		{"srpt", &srpt.Scheduler{R: 1.5}, 14855, 199, 250},
		{"svf", &svf.Scheduler{R: 1.5}, 12533, 456, 219},
		{"yarn", yarn.New(), 13937, 114, 205},
		{"dollymp2", core.MustNew(core.WithClones(2)), 13839, 115, 203},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := runWorkload(t, tc.s, jobs, 7)
			if len(res.Jobs) != len(jobs) {
				t.Fatalf("completed %d/%d jobs", len(res.Jobs), len(jobs))
			}
			if got := res.TotalFlowtime(); got != tc.flowtime || res.Makespan != tc.makespan || res.SchedCalls != tc.calls {
				t.Errorf("flowtime %d, makespan %d, %d Schedule calls; pinned %d, %d, %d",
					got, res.Makespan, res.SchedCalls, tc.flowtime, tc.makespan, tc.calls)
			}
		})
	}
}
