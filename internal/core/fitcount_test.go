//go:build !race

package core_test

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
)

// TestFitTrackerWorkCounts drains each simtest row once and pins the fit
// index's work counts: BestFit calls, how each was answered, and the tree
// nodes the searches entered. The counts are exact, a pure function of
// the seed, so a change to the bound or the search order shows here as a
// number on any host, and a change that moves a placement fails the
// row's schedule first. With the component-wise maximum as the only
// bound, paced-2k's searches entered 42 158 292 nodes, 108.1 per hit.
// Without the race detector: the four drains take about 5 s, under it
// minutes.
func TestFitTrackerWorkCounts(t *testing.T) {
	pins := map[string]sched.FitStats{
		"cloning-300": {Calls: 42_188, Frontier: 2_291, RootMisses: 10, Searches: 39_887, Hits: 39_807, Nodes: 702_694},
		"paced-2k":    {Calls: 389_885, Searches: 389_885, Hits: 389_885, Nodes: 19_624_403},
		"backlog-200": {Calls: 570_295, Frontier: 556_351, RootMisses: 112, Searches: 13_832, Hits: 5_698, Nodes: 292_808},
		"replay-32":   {Calls: 1_650_511, Frontier: 98_601, RootMisses: 2_281, Searches: 1_549_629, Hits: 1_549_155, Nodes: 10_712_457},
	}
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			fleet, source := r.Source(t)
			s := core.MustNew(core.WithClones(2))
			e, err := sim.New(sim.Config{
				Cluster: fleet, Scheduler: s,
				Seed: 1, Online: true, CompactJobs: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Drain(source)
			if err != nil {
				t.Fatal(err)
			}
			r.Check(t, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
			got := core.FitStatsOf(s)
			if got.Frontier+got.RootMisses+got.Searches != got.Calls || got.Hits > got.Searches {
				t.Fatalf("%+v: every call is answered once, and only a search hits", got)
			}
			t.Logf("%+v, %.1f nodes per hit", got, float64(got.Nodes)/float64(got.Hits))
			if want := pins[r.Name]; got != want {
				t.Fatalf("counted %+v\nwant    %+v", got, want)
			}
		})
	}
}
