//go:build !race

package sim_test

import (
	"testing"

	"dollymp/internal/core"
	. "dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
	"dollymp/internal/verify"
)

// TestEngineEventCounts drains each simtest row with a verify.Stream
// attached, which certifies the drain event by event, and checks that
// the engine accounts for every copy in the stream's Ledger: each job
// arrives, starts and finishes once; no server fails, so no copy is
// lost, each placed copy completes or is killed, and each task's
// clones are the copies killed; and the ledger places as many copies
// as the digest launched. A seam that drops or duplicates an event
// fails here. The exact counts are pinned once, in core's
// TestRowWorkCounts. Without the race detector: the four drains take
// about 6 s, under it minutes.
func TestEngineEventCounts(t *testing.T) {
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			fleet, open := r.Source(t)
			e, cert, err := verify.New(Config{
				Cluster: fleet, Scheduler: core.MustNew(core.WithClones(2)),
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
			n := cert.Ledger()
			if n.Arrived != r.Jobs || n.Started != r.Jobs || n.Finished != r.Jobs || n.Lost != 0 {
				t.Errorf("%+v: each of %d jobs arrives, starts and finishes once, and no copy is lost", n, r.Jobs)
			}
			if n.Completed+n.Killed != n.Placed || n.Killed != n.Clones || n.CloneWins > n.Clones {
				t.Errorf("%+v: each placed copy completes or is killed, one per clone", n)
			}
			if int64(n.Placed) != res.Digest.CopiesLaunched {
				t.Errorf("the ledger counts %d copies placed, the digest %d", n.Placed, res.Digest.CopiesLaunched)
			}
		})
	}
}
