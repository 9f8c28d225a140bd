//go:build !race

package core_test

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
)

// drainRow drains a simtest row once under DollyMP² and fails tb unless
// the drain reproduces the row's schedule; it returns the scheduler.
func drainRow(tb testing.TB, r simtest.Row) *core.Scheduler {
	tb.Helper()
	fleet, source := r.Source(tb)
	s := core.MustNew(core.WithClones(2))
	e, err := sim.New(sim.Config{
		Cluster: fleet, Scheduler: s,
		Seed: 1, Online: true, CompactJobs: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := e.Drain(source)
	if err != nil {
		tb.Fatal(err)
	}
	r.Check(tb, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
	return s
}

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
			got := core.FitStatsOf(drainRow(t, r))
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

// TestSchedulerWorkCounts drains each simtest row once and pins the
// scheduler's own work counts (core.StatsOf): the records sync walked and
// revalidated, the recomputes, the head-index builds and searches, and
// the redundancy passes. Like TestFitTrackerWorkCounts, the counts are
// exact, and a change that moves a placement fails the row's schedule
// before it reaches them. While every call walked all of ctx.Jobs(),
// backlog-200's syncs visited 5 013 837 records (1 136 walks) to
// revalidate the same 121 230; with the watch list they visit 1 223 171.
// While a deleted head left a blank in its leaf, paced-2k's searches
// scanned 12 051 016 leaf entries, 6 504 958 of them blanks; with the
// leaf's last live entry moved into the hole they scan 5 546 058.
func TestSchedulerWorkCounts(t *testing.T) {
	pins := map[string]core.Stats{
		"cloning-300": {Calls: 716, Walks: 300, Walked: 135_818, Watched: 146_994, Revalidations: 50_540, Recomputes: 300,
			Builds: 2_866, Built: 11_675, Queries: 275_757, Nodes: 42_743, LeafScanned: 217_689, OverflowScanned: 3_234,
			RedundancyOpened: 715, ClosedOnBudget: 301, ClosedOnFit: 1},
		"paced-2k": {Calls: 1_048, Walks: 462, Walked: 1_379_667, Watched: 1_421_357, Revalidations: 497_422, Recomputes: 462,
			Builds: 5_222, Built: 144_926, Queries: 2_941_102, Nodes: 1_176_637, LeafScanned: 5_546_058, OverflowScanned: 48_983,
			RedundancyOpened: 1_047, ClosedOnBudget: 465},
		"backlog-200": {Calls: 1_136, Walks: 4, Walked: 39_576, Watched: 1_183_595, Revalidations: 121_230, Recomputes: 4,
			Builds: 130, Built: 62_668, Queries: 2_308_820, Nodes: 1_326_479, LeafScanned: 4_539_155, OverflowScanned: 5_123_742,
			RedundancyOpened: 1_135, ClosedOnBudget: 43, ClosedOnFit: 689},
		"replay-32": {Calls: 363_252, Walks: 100_000, Walked: 1_349_512, Watched: 3_234_343, Revalidations: 793_269, Recomputes: 100_000,
			Builds: 997_298, Built: 174_246, Queries: 2_267_782, Nodes: 569_394, LeafScanned: 637_919, OverflowScanned: 63_373,
			RedundancyOpened: 363_251, ClosedOnBudget: 12_887, ClosedOnFit: 103},
	}
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			got := core.StatsOf(drainRow(t, r))
			if got.Calls != uint64(r.Calls) || got.ClosedOnBudget+got.ClosedOnFit > got.RedundancyOpened {
				t.Fatalf("%+v: one count per Schedule call, and a pass closes at most once", got)
			}
			t.Logf("%+v", got)
			if want := pins[r.Name]; got != want {
				t.Fatalf("counted %+v\nwant    %+v", got, want)
			}
		})
	}
}
