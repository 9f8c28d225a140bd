package sim

import (
	"reflect"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// failureScenario is a stochastic cloned workload on eight servers with
// three of them failing mid-run (one restored), so a single EventFail
// kills many copies of many jobs at once.
func failureScenario(s sched.Scheduler) Config {
	jobs := make([]*workload.Job, 40)
	for i := range jobs {
		jobs[i] = workload.Chain(workload.JobID(i+1), "j", "t", int64(i/4), []workload.Phase{
			{Name: "a", Tasks: 3 + i%4, Demand: resources.Cores(1, 1), MeanDuration: 8, SDDuration: 4},
			{Name: "b", Tasks: 2, Demand: resources.Cores(1, 2), MeanDuration: 5, SDDuration: 2},
		})
	}
	return Config{
		Cluster: cluster.Uniform(8, resources.Cores(8, 16)), Jobs: jobs, Scheduler: s,
		Seed: 7, Paranoid: true, RecordTrace: true,
		Events: []Event{
			{At: 6, Server: 0, Kind: EventFail},
			{At: 9, Server: 3, Kind: EventFail},
			{At: 14, Server: 0, Kind: EventRestore},
			{At: 20, Server: 5, Kind: EventFail},
		},
	}
}

// TestFailureTraceReproducible runs one failure scenario twice and
// requires the same event trace: the TraceLost events of a failure must
// not follow map iteration order.
func TestFailureTraceReproducible(t *testing.T) {
	run := func() *Result {
		e, err := New(failureScenario(cloner{}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	lost := 0
	for _, ev := range first.Trace {
		if ev.Kind == TraceLost {
			lost++
		}
	}
	if lost < 10 {
		t.Fatalf("scenario lost only %d copies; it cannot tell orders apart", lost)
	}
	for i := 0; i < 5; i++ {
		if again := run(); !reflect.DeepEqual(first.Trace, again.Trace) {
			t.Fatalf("run %d recorded a different trace for the same configuration", i+2)
		}
	}
}

// TestCopyTableMatchesTrace steps the failure scenario and, after every
// step, compares three views of every task's live copies: the count a
// scheduler reads off JobState, what Copies reports, and a tally kept
// from the recorded trace alone (place +1; kill and lost −1; complete
// −1 for the winner). That covers placement, sibling kill on first
// finish, failures that leave survivors (cloner) and failures that take
// the last copy (greedy), and the release of a finished job.
func TestCopyTableMatchesTrace(t *testing.T) {
	for _, s := range []sched.Scheduler{cloner{}, greedy{}} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := failureScenario(s)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			states := make(map[workload.JobID]*workload.JobState)
			for id, lj := range e.states {
				states[id] = lj.JobState
			}
			tally := make(map[workload.TaskRef]int)
			seen, survived, reverted, killed := 0, 0, 0, 0
			for {
				idle, err := e.Step()
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range e.res.Trace[seen:] {
					switch ev.Kind {
					case TracePlace:
						tally[ev.Ref]++
					case TraceKill:
						tally[ev.Ref]--
						killed++
					case TraceComplete:
						tally[ev.Ref]--
					case TraceLost:
						if tally[ev.Ref]--; tally[ev.Ref] > 0 {
							survived++
						} else {
							reverted++
						}
					}
				}
				seen = len(e.res.Trace)
				total := 0
				for _, j := range cfg.Jobs {
					js := states[j.ID]
					for k := range j.Phases {
						for l := 0; l < j.Phases[k].Tasks; l++ {
							ref := workload.TaskRef{Job: j.ID, Phase: workload.PhaseID(k), Index: l}
							want := tally[ref]
							total += want
							copies := e.Copies(ref)
							if len(copies) != want {
								t.Fatalf("slot %d %v: Copies reports %d, trace says %d", e.clock, ref, len(copies), want)
							}
							if got := js.LiveCopies(ref.Phase, ref.Index); got != want {
								t.Fatalf("slot %d %v: JobState counts %d, trace says %d", e.clock, ref, got, want)
							}
							if want == 0 && js.Task(ref.Phase, ref.Index) == workload.TaskRunning {
								t.Fatalf("slot %d %v: running with no copy", e.clock, ref)
							}
						}
					}
					if _, live := e.states[j.ID]; live == js.Done() {
						t.Fatalf("slot %d job %d: done=%v but record present=%v", e.clock, j.ID, js.Done(), live)
					}
				}
				if total != e.liveCopies {
					t.Fatalf("slot %d: engine counts %d live copies, trace says %d", e.clock, e.liveCopies, total)
				}
				if idle {
					break
				}
			}
			if e.liveCopies != 0 || len(e.states) != 0 {
				t.Fatalf("after the run: %d live copies, %d job records", e.liveCopies, len(e.states))
			}
			if reverted == 0 {
				t.Fatal("no failure took a task's last copy")
			}
			if s.Name() == "cloner" && (survived == 0 || killed == 0) {
				t.Fatalf("cloner run: %d failures with survivors, %d sibling kills; want both", survived, killed)
			}
		})
	}
}

// TestRemoveActiveOutOfIDOrder covers the one case where e.active is
// not in (arrival, ID) order: an online injection of a smaller ID into
// a slot whose arrivals were already delivered.
func TestRemoveActiveOutOfIDOrder(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(4, 4)), Scheduler: greedy{},
		Deterministic: true, Online: true, Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inject := func(id workload.JobID, mean float64) {
		t.Helper()
		if _, err := e.InjectJob(singleTaskJob(id, 0, mean)); err != nil {
			t.Fatal(err)
		}
	}
	inject(10, 5)
	inject(20, 9)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	inject(5, 3) // arrives at slot 0 too, behind jobs 10 and 20
	for {
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		for i, js := range e.active {
			if js.Done() {
				t.Fatalf("slot %d: finished job %d still active at %d", e.clock, js.Job.ID, i)
			}
		}
		if idle {
			break
		}
	}
	if got := e.res.Completed; got != 3 {
		t.Fatalf("completed %d of 3", got)
	}
}
