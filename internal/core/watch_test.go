//go:build !race

package core_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
	"dollymp/internal/verify"
)

// TestWatchListMatchesFullWalk drains runs whose Schedule calls mostly
// see no arrival, so sync takes the watch pass, under core.WatchChecked:
// at the top of every call each live record must be what a full walk
// would leave. The rows are the cloning and the packing regime; the two
// packing cells of TestScheduleEquivalenceProperty add heads that move
// to a new demand between calls, and a fleet that loses two servers
// (DropCopy, MarkPending) and gets one back. The rows keep a drain of
// their own, not TestRowWorkCounts': WatchChecked runs sync before
// Schedule does, so the core.Stats of a checked drain differ from the
// pinned ones. Without the race detector: the check re-reads every job
// on every call.
func TestWatchListMatchesFullWalk(t *testing.T) {
	for _, r := range simtest.Rows {
		if r.Name != "cloning-300" && r.Name != "backlog-200" {
			continue
		}
		t.Run(r.Name, func(t *testing.T) {
			fleet, open := r.Source(t)
			e, err := sim.New(sim.Config{
				Cluster: fleet, Scheduler: core.WatchChecked(t, core.MustNew(core.WithClones(2))),
				Seed: 1, Online: true, CompactJobs: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Drain(open())
			if err != nil {
				t.Fatal(err)
			}
			r.Check(t, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
		})
	}
	cells := []struct {
		name          string
		seed          uint64
		servers, jobs int
		events        []sim.Event
	}{
		{name: "packing/seed=10", seed: 10, servers: 40, jobs: 1500},
		{name: "failing/seed=11", seed: 11, servers: 32, jobs: 1500, events: packedFailures},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			e, cert, err := verify.New(sim.Config{
				Cluster:   cluster.LargeFleet(c.servers, c.seed),
				Jobs:      packingJobs(c.seed, c.jobs),
				Scheduler: core.WatchChecked(t, core.MustNew()),
				Seed:      c.seed,
				Events:    c.events,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err == nil {
				err = cert.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != c.jobs {
				t.Fatalf("completed %d of %d jobs", res.Completed, c.jobs)
			}
		})
	}
}
