//go:build !race

package core_test

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
	"dollymp/internal/verify"
)

// rowPins are the exact counts of one simtest row's drain, one per layer.
type rowPins struct {
	ledger verify.Ledger
	stats  core.Stats
	fit    sched.FitStats
}

// workPins holds every exact work pin of the simtest rows, keyed by row
// name; the rows' schedules are pinned in simtest.Rows. The table lives
// here, not in simtest.Row, because verify imports sim and sim's own
// tests import simtest.
var workPins = map[string]rowPins{
	"cloning-300": {
		ledger: verify.Ledger{Placed: 76_206, Clones: 39_394, Completed: 36_812, CloneWins: 16_380, Killed: 39_394, Advances: 343,
			Wasted: resources.Usage{CPUMilliSlots: 386_218_155, MemMiBSlots: 789_942_411}},
		stats: core.Stats{Calls: 716, Walks: 300, Walked: 135_818, Watched: 146_994, Revalidations: 50_540, Recomputes: 300, Infos: 47_606,
			Builds: 2_866, Built: 11_675, Queries: 275_757, Nodes: 42_743, LeafScanned: 217_689, OverflowScanned: 3_234,
			RedundancyOpened: 715, ClosedOnBudget: 301, ClosedOnFit: 1, CopyScanned: 47_307},
		fit: sched.FitStats{Calls: 42_188, Frontier: 2_291, RootMisses: 10, Searches: 39_887, Hits: 39_807, Nodes: 613_832},
	},
	"paced-2k": {
		ledger: verify.Ledger{Placed: 765_675, Clones: 389_303, Completed: 376_372, CloneWins: 182_834, Killed: 389_303, Advances: 511,
			Wasted: resources.Usage{CPUMilliSlots: 3_909_623_942, MemMiBSlots: 8_014_905_805}},
		stats: core.Stats{Calls: 1_048, Walks: 462, Walked: 1_379_667, Watched: 1_421_357, Revalidations: 497_422, Recomputes: 462, Infos: 480_831,
			Builds: 5_222, Built: 144_926, Queries: 2_941_102, Nodes: 1_176_637, LeafScanned: 5_546_058, OverflowScanned: 48_983,
			RedundancyOpened: 1_047, ClosedOnBudget: 465, CopyScanned: 400_315},
		fit: sched.FitStats{Calls: 389_885, Searches: 389_885, Hits: 389_885, Nodes: 13_943_732},
	},
	"backlog-200": {
		ledger: verify.Ledger{Placed: 96_965, Clones: 5_295, Completed: 91_670, CloneWins: 1_694, Killed: 5_295, Advances: 571,
			Wasted: resources.Usage{CPUMilliSlots: 61_754_819, MemMiBSlots: 123_634_326}},
		stats: core.Stats{Calls: 1_136, Walks: 4, Walked: 39_576, Watched: 1_183_595, Revalidations: 121_230, Recomputes: 4, Infos: 15_568,
			Builds: 130, Built: 62_668, Queries: 2_308_820, Nodes: 1_326_479, LeafScanned: 4_539_155, OverflowScanned: 5_123_742,
			RedundancyOpened: 1_135, ClosedOnBudget: 43, ClosedOnFit: 689, CopyScanned: 573_289},
		fit: sched.FitStats{Calls: 570_295, Frontier: 556_351, RootMisses: 112, Searches: 13_832, Hits: 5_698, Nodes: 292_217},
	},
	"replay-32": {
		ledger: verify.Ledger{Placed: 1_819_634, Clones: 1_198_894, Completed: 620_740, CloneWins: 353_594, Killed: 1_198_894, Advances: 133_194,
			Wasted: resources.Usage{CPUMilliSlots: 10_004_433_432, MemMiBSlots: 20_495_889_513}},
		stats: core.Stats{Calls: 363_252, Walks: 100_000, Walked: 1_349_512, Watched: 3_234_343, Revalidations: 793_269, Recomputes: 100_000, Infos: 528_441,
			Builds: 997_298, Built: 174_246, Queries: 2_267_782, Nodes: 569_394, LeafScanned: 637_919, OverflowScanned: 63_373,
			RedundancyOpened: 363_251, ClosedOnBudget: 12_887, ClosedOnFit: 103, CopyScanned: 1_713_008},
		fit: sched.FitStats{Calls: 1_650_511, Frontier: 98_601, RootMisses: 2_281, Searches: 1_549_629, Hits: 1_549_155, Nodes: 9_985_452},
	},
}

// rowDrain is what one drain of a simtest row leaves for the work tests:
// the copies its digest launched and the counts of each layer.
type rowDrain struct {
	launched int64
	ledger   verify.Ledger
	stats    core.Stats
	fit      sched.FitStats
}

// drained holds each row's drain, made by the first test that asks for
// it; the work tests do not run in parallel, so no lock guards it.
var drained = map[string]*rowDrain{}

// drainRow drains r under DollyMP² with a verify.Stream attached, which
// certifies the drain event by event, and fails t unless the drain
// reproduces the row's schedule. It drains each row once per test
// binary: the counts are a pure function of the seed, so the three work
// tests read one drain.
func drainRow(t *testing.T, r simtest.Row) *rowDrain {
	t.Helper()
	if d := drained[r.Name]; d != nil {
		return d
	}
	fleet, open := r.Source(t)
	s := core.MustNew(core.WithClones(2))
	e, cert, err := verify.New(sim.Config{
		Cluster: fleet, Scheduler: s,
		Seed: 1, Online: true, CompactJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Drain(open())
	if err == nil {
		err = cert.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	r.Check(t, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
	d := &rowDrain{res.Digest.CopiesLaunched, cert.Ledger(), core.StatsOf(s), core.FitStatsOf(s)}
	drained[r.Name] = d
	return d
}

// TestRowWorkCounts checks the engine's work on each simtest row, in
// the stream's Ledger: each job arrives, starts and finishes once; no
// server fails, so no copy is lost; copies placed (as many as the
// digest launched), completed and killed, with the clone share of the
// first two; clock advances; and the resource·slots the killed siblings
// held. A seam that drops or duplicates an event moves these. It also
// checks the one identity that needs all three layers' counts: core
// grants copies with no bind, so every BestFit hit is a granted clone
// or the entry probe of a redundancy pass that closed on neither budget
// nor fit.
//
// With TestSchedulerWorkCounts and TestFitTrackerWorkCounts it reads
// one drain per row (drainRow) and one pin table (workPins). The counts
// are a pure function of the seed, so a change to the engine's events,
// sync, the head index, the fit bound or the search order shows as a
// number on any host, and a change that moves a placement fails the
// row's schedule first. The stream is an observer and never calls the
// scheduler, so attaching it moves no count. No row keeps a trace, and
// replay-32 streams its jobs from disk, so the stream certifies it with
// no job list held. Without the race detector: the four drains take
// about 6 s, under it minutes.
func TestRowWorkCounts(t *testing.T) {
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			d, want := drainRow(t, r), workPins[r.Name].ledger
			n, st := d.ledger, d.stats
			t.Logf("%+v", n)
			if int64(n.Placed) != d.launched {
				t.Errorf("the ledger counts %d copies placed, the digest %d", n.Placed, d.launched)
			}
			if probes := st.RedundancyOpened - st.ClosedOnBudget - st.ClosedOnFit; d.fit.Hits != uint64(n.Clones)+probes {
				t.Errorf("%d BestFit hits, but %d clones granted and %d redundancy passes past the entry probe",
					d.fit.Hits, n.Clones, probes)
			}
			want.Arrived, want.Started, want.Finished = r.Jobs, r.Jobs, r.Jobs
			if n != want {
				t.Errorf("ledger %+v\nwant   %+v", n, want)
			}
		})
	}
}

// TestSchedulerWorkCounts checks the scheduler's work on each simtest
// row, in core.StatsOf: the records sync walked, watched and
// revalidated, the recomputes and the job infos they evaluated, the
// head-index builds and searches with the nodes and entries they
// scanned, and the redundancy passes, how many closed before any walk,
// and the running tasks the walk read. There is one count per Schedule
// call, and a pass closes at most once. It reads TestRowWorkCounts'
// drain.
func TestSchedulerWorkCounts(t *testing.T) {
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			st, want := drainRow(t, r).stats, workPins[r.Name].stats
			t.Logf("%+v", st)
			if st.Calls != uint64(r.Calls) || st.ClosedOnBudget+st.ClosedOnFit > st.RedundancyOpened {
				t.Errorf("%+v: one count per Schedule call, and a pass closes at most once", st)
			}
			if st != want {
				t.Errorf("stats %+v\nwant  %+v", st, want)
			}
		})
	}
}

// TestFitTrackerWorkCounts checks the fit index's work on each simtest
// row, in core.FitStatsOf: BestFit calls, answered once each by the miss
// frontier, a root miss or a search; the hits, which only a search
// finds; and the tree nodes the searches entered. It reads
// TestRowWorkCounts' drain.
func TestFitTrackerWorkCounts(t *testing.T) {
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			fit, want := drainRow(t, r).fit, workPins[r.Name].fit
			t.Logf("%+v, %.1f nodes per hit", fit, float64(fit.Nodes)/float64(fit.Hits))
			if fit.Frontier+fit.RootMisses+fit.Searches != fit.Calls || fit.Hits > fit.Searches {
				t.Errorf("%+v: every call is answered once, and only a search hits", fit)
			}
			if fit != want {
				t.Errorf("fit %+v\nwant %+v", fit, want)
			}
		})
	}
}
