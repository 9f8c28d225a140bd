package verify

import (
	"reflect"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
	"dollymp/internal/sched"
	"dollymp/internal/sched/builtin"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
)

// TestCertifyEverySchedulersTrace certifies one mixed-workload run of
// every scheduling policy, with servers failing under it and coming
// back, against the §3.1 model constraints. A user observer in the same
// run, keeping the copy kinds, must see exactly Result.Trace: the trace
// recorder is one more consumer of the engine's one event stream.
func TestCertifyEverySchedulersTrace(t *testing.T) {
	var events []sim.Event
	for s := cluster.ServerID(0); s < 4; s++ {
		events = append(events,
			sim.Event{At: 10 + 3*int64(s), Server: s, Kind: sim.EventFail},
			sim.Event{At: 40 + 3*int64(s), Server: s, Kind: sim.EventRestore})
	}
	jobs := trace.MixedDeployment(14, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 6}, 21)
	// Every name the binaries accept, then the option variants no name
	// reaches, so a new name cannot be left out.
	var scheds []sched.Scheduler
	for _, name := range builtin.Names() {
		newSched, _ := builtin.Lookup(name)
		scheds = append(scheds, newSched(31))
	}
	scheds = append(scheds,
		&tetris.Scheduler{R: 1.5, MaxClones: 1},
		&capacity.Scheduler{Speculation: false},
		core.MustNew(core.WithStragglerAvoidance(true)),
		core.MustNew(core.WithSpeculation(1.5, 3)),
		core.MustNew(core.WithEstimation(estimate.Config{})),
	)
	for _, s := range scheds {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			var seen []sim.TraceEvent
			e, err := sim.New(sim.Config{
				Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: s, Seed: 31,
				RecordTrace: true, Events: events,
				Observe: func(o *sim.Observation) {
					if o.Kind <= sim.TraceLost {
						seen = append(seen, o.TraceEvent)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.CopiesLostToFailures == 0 {
				t.Fatal("no copy was lost to a failure")
			}
			if !reflect.DeepEqual(seen, res.Trace) {
				t.Fatalf("the observer saw %d copy events, Result.Trace holds %d, or in another order", len(seen), len(res.Trace))
			}
			if err := Check(res.Trace, cluster.Testbed30(), jobs); err != nil {
				t.Fatalf("certification failed: %v", err)
			}
		})
	}
}
