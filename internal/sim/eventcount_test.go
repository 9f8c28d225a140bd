//go:build !race

package sim

import (
	"testing"

	"dollymp/internal/core"
	"dollymp/internal/sim/simtest"
)

// eventCounts is what a counting observer tallies over one drain.
type eventCounts struct {
	arrive, jobStart, jobDone, lost       int
	place, clonePlace, complete, cloneWin int
	kill, advance                         int
}

// TestEngineEventCounts drains each simtest row once with an
// observer that counts every event kind, and pins the counts: the
// engine's work per row, exact and a pure function of the seed. Each job
// arrives, starts and finishes once; no server fails, so no copy is
// lost; place, complete and kill (with the clone share of the first two)
// and clock advances are the row's. The counts were first read from
// Result.Trace and one sample per clock advance, so a seam that drops or
// duplicates an event fails here. Without the race detector: the four
// drains take about 4 s, under it minutes.
func TestEngineEventCounts(t *testing.T) {
	pins := map[string]eventCounts{
		"cloning-300": {place: 76_206, clonePlace: 39_394, complete: 36_812, cloneWin: 16_380, kill: 39_394, advance: 343},
		"paced-2k":    {place: 765_675, clonePlace: 389_303, complete: 376_372, cloneWin: 182_834, kill: 389_303, advance: 511},
		"backlog-200": {place: 96_965, clonePlace: 5_295, complete: 91_670, cloneWin: 1_694, kill: 5_295, advance: 571},
		"replay-32":   {place: 1_819_634, clonePlace: 1_198_894, complete: 620_740, cloneWin: 353_594, kill: 1_198_894, advance: 133_194},
	}
	for _, r := range simtest.Rows {
		t.Run(r.Name, func(t *testing.T) {
			fleet, source := r.Source(t)
			var n eventCounts
			e, err := New(Config{
				Cluster: fleet, Scheduler: core.MustNew(core.WithClones(2)),
				Seed: 1, Online: true, CompactJobs: true,
				Observe: func(o *Observation) {
					switch o.Kind {
					case TraceArrive:
						n.arrive++
					case TraceJobStart:
						n.jobStart++
					case TraceJobDone:
						n.jobDone++
					case TraceLost:
						n.lost++
					case TracePlace:
						n.place++
						if o.Clone {
							n.clonePlace++
						}
					case TraceComplete:
						n.complete++
						if o.Clone {
							n.cloneWin++
						}
					case TraceKill:
						n.kill++
					case TraceAdvance:
						n.advance++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Drain(source)
			if err != nil {
				t.Fatal(err)
			}
			r.Check(t, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
			want := pins[r.Name]
			want.arrive, want.jobStart, want.jobDone = r.Jobs, r.Jobs, r.Jobs
			if n != want {
				t.Fatalf("counted %+v\nwant    %+v", n, want)
			}
		})
	}
}
