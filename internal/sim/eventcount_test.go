//go:build !race

package sim

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// eventCounts is what a counting observer tallies over one drain.
type eventCounts struct {
	arrive, jobStart, jobDone, lost       int
	place, clonePlace, complete, cloneWin int
	kill, advance                         int
}

// TestEngineEventCounts drains each BenchmarkEngineDrain row once with an
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
	for _, r := range drainRows {
		t.Run(r.name, func(t *testing.T) {
			fleet := cluster.LargeFleet(r.servers, 1)
			var source func() (*workload.Job, error)
			if r.replay {
				s, err := trace.OpenStream(r.writeTrace(t))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				source = s.Next
			} else {
				var jobs []*workload.Job
				fleet, jobs = r.build()
				source = sliceSource(jobs)
			}
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
			if res.Completed != r.jobs || res.TotalFlowtime() != r.flowtime || res.Makespan != r.makespan || res.SchedCalls != r.calls {
				t.Fatalf("completed %d, flowtime %d, makespan %d, %d Schedule calls; the row pins %d, %d, %d, %d",
					res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls, r.jobs, r.flowtime, r.makespan, r.calls)
			}
			want := pins[r.name]
			want.arrive, want.jobStart, want.jobDone = r.jobs, r.jobs, r.jobs
			if n != want {
				t.Fatalf("counted %+v\nwant    %+v", n, want)
			}
		})
	}
}
