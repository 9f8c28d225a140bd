//go:build !race

package sim_test

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/resources"
	. "dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
	"dollymp/internal/verify"
)

// TestEngineEventCounts drains each simtest row once with a verify.Stream
// attached, which certifies the drain event by event, and pins the
// counts its Ledger keeps: the engine's work per row, exact and a pure
// function of the seed. Each job arrives, starts and finishes once; no
// server fails, so no copy is lost; place, complete and kill (with the
// clone share of the first two), clock advances and the resource·slots
// the killed siblings held are the row's. The
// counts were first read from Result.Trace and one sample per clock
// advance, so a seam that drops or duplicates an event fails here. No
// row keeps a trace, and replay-32 streams its jobs from disk, so the
// stream certifies it with no job list held. Without the race detector:
// the four drains take about 8 s, under it minutes.
func TestEngineEventCounts(t *testing.T) {
	pins := map[string]verify.Ledger{
		"cloning-300": {Placed: 76_206, Clones: 39_394, Completed: 36_812, CloneWins: 16_380, Killed: 39_394, Advances: 343,
			Wasted: resources.Usage{CPUMilliSlots: 386_218_155, MemMiBSlots: 789_942_411}},
		"paced-2k": {Placed: 765_675, Clones: 389_303, Completed: 376_372, CloneWins: 182_834, Killed: 389_303, Advances: 511,
			Wasted: resources.Usage{CPUMilliSlots: 3_909_623_942, MemMiBSlots: 8_014_905_805}},
		"backlog-200": {Placed: 96_965, Clones: 5_295, Completed: 91_670, CloneWins: 1_694, Killed: 5_295, Advances: 571,
			Wasted: resources.Usage{CPUMilliSlots: 61_754_819, MemMiBSlots: 123_634_326}},
		"replay-32": {Placed: 1_819_634, Clones: 1_198_894, Completed: 620_740, CloneWins: 353_594, Killed: 1_198_894, Advances: 133_194,
			Wasted: resources.Usage{CPUMilliSlots: 10_004_433_432, MemMiBSlots: 20_495_889_513}},
	}
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			fleet, source := r.Source(t)
			e, cert, err := verify.New(Config{
				Cluster: fleet, Scheduler: core.MustNew(core.WithClones(2)),
				Seed: 1, Online: true, CompactJobs: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Drain(source)
			if err == nil {
				err = cert.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			r.Check(t, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
			n, want := cert.Ledger(), pins[r.Name]
			want.Arrived, want.Started, want.Finished = r.Jobs, r.Jobs, r.Jobs
			if n != want {
				t.Fatalf("counted %+v\nwant    %+v", n, want)
			}
			if int64(n.Placed) != res.Digest.CopiesLaunched {
				t.Fatalf("the ledger counts %d copies placed, the digest %d", n.Placed, res.Digest.CopiesLaunched)
			}
		})
	}
}
