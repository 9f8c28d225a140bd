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
	"dollymp/internal/workload"
)

// TestCertifyEverySchedulersTrace certifies one mixed-workload run of
// every scheduling policy, with servers failing under it and coming
// back, against the §3.1 model constraints: as it runs, with a Stream,
// and from its recorded trace, with Check. A user observer in the same
// run, keeping the copy kinds, must see exactly Result.Trace: the trace
// recorder is one more consumer of the engine's one event stream. The
// stream's Ledger must count what the trace holds.
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
			e, stream, err := New(sim.Config{
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
			if err == nil {
				err = stream.Close()
			}
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
			// The start slots of the live copies of each task, server and
			// clone flag, oldest first: an ending copy is the oldest.
			type live struct {
				ref    workload.TaskRef
				server cluster.ServerID
				clone  bool
			}
			starts := map[live][]int64{}
			want := Ledger{Arrived: len(jobs), Started: len(jobs), Finished: len(jobs), Advances: stream.Ledger().Advances}
			for _, ev := range res.Trace {
				k, start := live{ev.Ref, ev.Server, ev.Clone}, int64(0)
				if ev.Kind != sim.TracePlace {
					start, starts[k] = starts[k][0], starts[k][1:]
				}
				switch ev.Kind {
				case sim.TracePlace:
					starts[k] = append(starts[k], ev.Slot)
					want.Placed++
					if ev.Clone {
						want.Clones++
					}
				case sim.TraceComplete:
					want.Completed++
					if ev.Clone {
						want.CloneWins++
					}
				case sim.TraceKill:
					want.Killed++
					want.Wasted.AddFor(ev.Demand, ev.Slot-start)
				case sim.TraceLost:
					want.Lost++
				}
			}
			got := stream.Ledger()
			if got != want {
				t.Fatalf("ledger %+v\ntrace  %+v", got, want)
			}
			if want.Killed > 0 && got.Wasted.CPUMilliSlots <= 0 {
				t.Fatalf("%d siblings killed, yet no resource·slots wasted", want.Killed)
			}
		})
	}
}
