//go:build !race

package core_test

import (
	"fmt"
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/experiments"
	"dollymp/internal/sched"
)

// decisionPoint builds §6.3.3's decision point at paper scale, 1K queued
// jobs on LargeFleet(30000), drawn from seed.
func decisionPoint(tb testing.TB, seed uint64) sched.Context {
	tb.Helper()
	sc := experiments.Paper()
	sc.Seed = seed
	ctx, err := experiments.OverheadContext(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}

// decide runs the decision as experiments.Overhead runs it: a fresh
// DollyMP², one priority recomputation, one placement round. It returns
// the scheduler and the placement count.
func decide(ctx sched.Context) (*core.Scheduler, int) {
	s := core.MustNew()
	s.RecomputePriorities(ctx)
	return s, len(s.Schedule(ctx))
}

// TestScheduleDecision30000Counts pins §6.3.3's decision in counted work
// rather than wall clock: the scheduler's counts (core.StatsOf) and the
// fit index's (core.FitStatsOf) are exact on any host. Seed 42 is the
// decision `dollymp-bench -scale paper` times (its "full placement
// round"); seed 1 is a second draw. Every task is pending, so the one
// BestFit is the redundancy probe, which finds room left on the fleet:
// it entered 14 422 and 14 388 nodes of the near-tied fleet before the
// fit index's tie dominance, 16 since.
func TestScheduleDecision30000Counts(t *testing.T) {
	for _, row := range []struct {
		seed   uint64
		placed int
		stats  core.Stats
		fit    sched.FitStats
	}{
		{42, 25_218,
			core.Stats{Calls: 1, Walks: 1, Walked: 1_000, Revalidations: 1_000, Recomputes: 1, Infos: 1_000,
				Builds: 8, Built: 1_000, Queries: 43_047, Nodes: 374_934, LeafScanned: 1_365_628, RedundancyOpened: 1},
			sched.FitStats{Calls: 1, Searches: 1, Hits: 1, Nodes: 16}},
		{1, 25_642,
			core.Stats{Calls: 1, Walks: 1, Walked: 1_000, Revalidations: 1_000, Recomputes: 1, Infos: 1_000,
				Builds: 8, Built: 1_000, Queries: 43_849, Nodes: 365_769, LeafScanned: 1_311_496, RedundancyOpened: 1},
			sched.FitStats{Calls: 1, Searches: 1, Hits: 1, Nodes: 16}},
	} {
		t.Run(fmt.Sprintf("seed=%d", row.seed), func(t *testing.T) {
			s, placed := decide(decisionPoint(t, row.seed))
			st, fit := core.StatsOf(s), core.FitStatsOf(s)
			t.Logf("%d placements\n%+v\n%+v", placed, st, fit)
			if placed != row.placed {
				t.Errorf("%d placements, want %d", placed, row.placed)
			}
			if st != row.stats {
				t.Errorf("counted %+v\nwant    %+v", st, row.stats)
			}
			if fit != row.fit {
				t.Errorf("fit index counted %+v\nwant                 %+v", fit, row.fit)
			}
		})
	}
}

// BenchmarkScheduleDecision30000 times the seed-42 decision that
// TestScheduleDecision30000Counts counts. The decision point is built
// once; each iteration runs a fresh scheduler on it, since a Schedule
// call does not apply its placements.
func BenchmarkScheduleDecision30000(b *testing.B) {
	ctx := decisionPoint(b, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, placed := decide(ctx); placed == 0 {
			b.Fatal("no placements")
		}
	}
}
