package sim_test

import (
	"reflect"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	. "dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/verify"
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
		Seed: 7, RecordTrace: true,
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
		e, cert, err := verify.New(failureScenario(Cloner{}))
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
// −1 for the winner). The fleet-wide total must also equal a running
// count a second observer keeps from the same events. That covers
// placement, sibling kill on first finish, failures that leave
// survivors (cloner) and failures that take the last copy (greedy), and
// the release of a finished job.
func TestCopyTableMatchesTrace(t *testing.T) {
	for _, s := range []sched.Scheduler{Cloner{}, Greedy{}} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := failureScenario(s)
			running := 0
			cfg.Observe = func(o *Observation) {
				switch o.Kind {
				case TracePlace:
					running++
				case TraceComplete, TraceKill, TraceLost:
					running--
				}
			}
			e, cert, err := verify.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A job's state exists from its arrival on; it is kept here
			// past the job's release.
			states := make(map[workload.JobID]*workload.JobState)
			tally := make(map[workload.TaskRef]int)
			seen, survived, reverted, killed := 0, 0, 0, 0
			for {
				idle, err := e.Step()
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range e.Trace()[seen:] {
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
				seen = len(e.Trace())
				for _, js := range e.Jobs() {
					if states[js.Job.ID] == nil {
						states[js.Job.ID] = js
					}
				}
				total := 0
				for _, j := range cfg.Jobs {
					js := states[j.ID]
					if js == nil {
						// Not arrived: registered, no record, no copy.
						if lj, ok := e.Record(j.ID); !ok || lj != nil {
							t.Fatalf("slot %d job %d: pending, yet registered=%v with a record=%v", e.Now(), j.ID, ok, lj != nil)
						}
						for k := range j.Phases {
							for l := 0; l < j.Phases[k].Tasks; l++ {
								ref := workload.TaskRef{Job: j.ID, Phase: workload.PhaseID(k), Index: l}
								if tally[ref] != 0 || e.Copies(ref) != nil {
									t.Fatalf("slot %d %v: pending job, yet the trace counts %d copies and Copies reports %d", e.Now(), ref, tally[ref], len(e.Copies(ref)))
								}
							}
						}
						continue
					}
					for k := range j.Phases {
						for l := 0; l < j.Phases[k].Tasks; l++ {
							ref := workload.TaskRef{Job: j.ID, Phase: workload.PhaseID(k), Index: l}
							want := tally[ref]
							total += want
							copies := e.Copies(ref)
							if len(copies) != want {
								t.Fatalf("slot %d %v: Copies reports %d, trace says %d", e.Now(), ref, len(copies), want)
							}
							if got := js.LiveCopies(ref.Phase, ref.Index); got != want {
								t.Fatalf("slot %d %v: JobState counts %d, trace says %d", e.Now(), ref, got, want)
							}
							if want == 0 && js.Task(ref.Phase, ref.Index) == workload.TaskRunning {
								t.Fatalf("slot %d %v: running with no copy", e.Now(), ref)
							}
						}
					}
					if _, live := e.Record(j.ID); live == js.Done() {
						t.Fatalf("slot %d job %d: done=%v but record present=%v", e.Now(), j.ID, js.Done(), live)
					}
				}
				if total != running {
					t.Fatalf("slot %d: the observer counts %d live copies, trace says %d", e.Now(), running, total)
				}
				if idle {
					break
				}
			}
			if err := cert.Close(); err != nil {
				t.Fatal(err)
			}
			if running != 0 || e.Records() != 0 {
				t.Fatalf("after the run: %d live copies, %d job records", running, e.Records())
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

// rackedFleet is failureScenario's fleet spread over three racks, so the
// winning-rack tallies have something to tell apart.
func rackedFleet(t *testing.T) *cluster.Cluster {
	t.Helper()
	specs := make([]cluster.Spec, 8)
	for i := range specs {
		specs[i] = cluster.Spec{Name: "r", Capacity: resources.Cores(8, 16), Speed: 1, Rack: i % 3}
	}
	c, err := cluster.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPhaseRecordsMatchTrace steps the failure scenario and, after every
// step, compares what the live-job record answers — PhaseStats,
// PhaseOutputRack, Allocation and the copies-per-task summary — with a
// recomputation from the recorded trace alone, through placement,
// sibling kill, failures with and without survivors, and release. A job
// that has not arrived has no record and answers zeros, as an unknown
// job does; an arrived job that has placed nothing carries no phase
// records and answers with its declared statistics; a released one
// answers zeros.
func TestPhaseRecordsMatchTrace(t *testing.T) {
	type phaseID struct {
		job   workload.JobID
		phase workload.PhaseID
	}
	type phaseWant struct {
		observed, copies stats.Summary
		racks            [3]int
	}
	for _, s := range []sched.Scheduler{Cloner{}, Greedy{}} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := failureScenario(s)
			cfg.Cluster = rackedFleet(t)
			e, cert, err := verify.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Both test schedulers place every copy of a task in one call,
			// so the live copies of a task share a start slot and the
			// trace need not say which of them won.
			tally := make(map[workload.TaskRef]int)
			start := make(map[workload.TaskRef]int64)
			alloc := make(map[workload.JobID]resources.Vector)
			want := make(map[phaseID]*phaseWant)
			seen, pending, queued, released, ties := 0, 0, 0, 0, 0
			for {
				idle, err := e.Step()
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range e.Trace()[seen:] {
					id := phaseID{ev.Ref.Job, ev.Ref.Phase}
					switch ev.Kind {
					case TracePlace:
						if tally[ev.Ref] > 0 && start[ev.Ref] != ev.Slot {
							t.Fatalf("%v: copies placed at slots %d and %d; the recomputation assumes one", ev.Ref, start[ev.Ref], ev.Slot)
						}
						tally[ev.Ref]++
						start[ev.Ref] = ev.Slot
						alloc[ev.Ref.Job] = alloc[ev.Ref.Job].Add(ev.Demand)
					case TraceKill, TraceLost:
						tally[ev.Ref]--
						alloc[ev.Ref.Job] = alloc[ev.Ref.Job].Sub(ev.Demand)
					case TraceComplete:
						w := want[id]
						if w == nil {
							w = &phaseWant{}
							want[id] = w
						}
						w.observed.Add(float64(ev.Slot - start[ev.Ref]))
						w.racks[cfg.Cluster.Server(ev.Server).Rack]++
						tally[ev.Ref]--
						alloc[ev.Ref.Job] = alloc[ev.Ref.Job].Sub(ev.Demand)
					}
				}
				// The copies-per-task count is the task's live copies as its
				// winner finishes: the kills recorded in the same slot plus
				// the winner.
				for i := seen; i < len(e.Trace()); i++ {
					ev := e.Trace()[i]
					if ev.Kind != TraceComplete {
						continue
					}
					n := 1
					for j := i - 1; j >= seen && e.Trace()[j].Kind == TraceKill && e.Trace()[j].Ref == ev.Ref; j-- {
						n++
					}
					want[phaseID{ev.Ref.Job, ev.Ref.Phase}].copies.Add(float64(n))
				}
				seen = len(e.Trace())

				for _, j := range cfg.Jobs {
					lj, registered := e.Record(j.ID)
					if got := e.Allocation(j.ID); got != alloc[j.ID] {
						t.Fatalf("slot %d job %d: Allocation %v, trace says %v", e.Now(), j.ID, got, alloc[j.ID])
					}
					if lj != nil && !lj.Opened() != (lj.FirstStart < 0) {
						t.Fatalf("slot %d job %d: record present=%v, first start %d", e.Now(), j.ID, lj.Opened(), lj.FirstStart)
					}
					if lj != nil && !lj.Opened() {
						queued++
					}
					for k := range j.Phases {
						kid := workload.PhaseID(k)
						mean, sd, n := e.PhaseStats(j.ID, kid)
						rack, ok := e.PhaseOutputRack(j.ID, kid)
						if lj == nil { // not arrived, or finished and released
							state := "released"
							if registered {
								state = "pending"
								pending++
							} else {
								released++
							}
							if mean != 0 || sd != 0 || n != 0 || rack != 0 || ok {
								t.Fatalf("slot %d job %d phase %d: %s, yet answers (%v, %v, %d) rack (%d, %v)", e.Now(), j.ID, k, state, mean, sd, n, rack, ok)
							}
							continue
						}
						w := want[phaseID{j.ID, kid}]
						if w == nil {
							w = &phaseWant{}
						}
						if w.observed.N() == 0 {
							if mean != j.Phases[k].MeanDuration || sd != j.Phases[k].SDDuration || n != 0 || ok {
								t.Fatalf("slot %d job %d phase %d: nothing finished, yet answers (%v, %v, %d) rack ok=%v", e.Now(), j.ID, k, mean, sd, n, ok)
							}
							continue
						}
						if mean != w.observed.Mean() || sd != w.observed.SD() || n != w.observed.N() {
							t.Fatalf("slot %d job %d phase %d: PhaseStats (%v, %v, %d), trace says (%v, %v, %d)",
								e.Now(), j.ID, k, mean, sd, n, w.observed.Mean(), w.observed.SD(), w.observed.N())
						}
						best := 0
						for r, c := range w.racks {
							if c > w.racks[best] {
								best = r
							}
						}
						for r, c := range w.racks {
							if r > best && c == w.racks[best] {
								ties++ // the lower rack must win
							}
						}
						if !ok || rack != best {
							t.Fatalf("slot %d job %d phase %d: output rack (%d, %v), trace tally %v", e.Now(), j.ID, k, rack, ok, w.racks)
						}
						if got := lj.CopiesPerTask(k); got.N() != w.copies.N() || got.Mean() != w.copies.Mean() {
							t.Fatalf("slot %d job %d phase %d: copies per task n=%d mean %v, trace says n=%d mean %v",
								e.Now(), j.ID, k, got.N(), got.Mean(), w.copies.N(), w.copies.Mean())
						}
					}
				}
				if idle {
					break
				}
			}
			if err := cert.Close(); err != nil {
				t.Fatal(err)
			}
			if pending == 0 || queued == 0 || released == 0 || ties == 0 {
				t.Fatalf("the run did not exercise the record's lifetime: %d pending looks, %d queued, %d released, %d rack ties", pending, queued, released, ties)
			}
		})
	}
}

// TestRemoveActiveOutOfIDOrder covers the one case where Jobs() is not in
// (arrival, ID) order: an online injection of a smaller ID into a slot
// whose arrivals were already delivered. Finished jobs must still be cut
// out, and the survivors must keep the order they were delivered in.
func TestRemoveActiveOutOfIDOrder(t *testing.T) {
	e, cert, err := verify.New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(4, 4)), Scheduler: Greedy{},
		Deterministic: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inject := func(id workload.JobID, mean float64) {
		t.Helper()
		if _, err := e.InjectJob(SingleTaskJob(id, 0, mean)); err != nil {
			t.Fatal(err)
		}
	}
	inject(10, 5)
	inject(20, 9)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	inject(5, 3) // arrives at slot 0 too, behind jobs 10 and 20
	delivered := []workload.JobID{10, 20, 5}
	for {
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i, js := range e.Jobs() {
			if js.Done() {
				t.Fatalf("slot %d: finished job %d still active at %d", e.Now(), js.Job.ID, i)
			}
			for next < len(delivered) && delivered[next] != js.Job.ID {
				next++
			}
			if next == len(delivered) {
				t.Fatalf("slot %d: job %d at %d is out of delivery order %v", e.Now(), js.Job.ID, i, delivered)
			}
		}
		if idle {
			break
		}
	}
	if err := cert.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.CompletedJobs(); got != 3 {
		t.Fatalf("completed %d of 3", got)
	}
}

// TestCopiesDoesNotAllocate: Copies answers in a buffer the engine
// keeps, so a warm call allocates nothing and still lists the task's
// copies, original first.
func TestCopiesDoesNotAllocate(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(2, resources.Cores(8, 16)), Scheduler: Cloner{},
		Jobs: []*workload.Job{SingleTaskJob(1, 0, 50)}, Seed: 1, Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	ref := workload.TaskRef{Job: 1}
	want := []sched.CopyStatus{{Server: 0}, {Server: 0, Clone: true}}
	if got := e.Copies(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("Copies = %+v, want %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Copies(ref) }); allocs != 0 {
		t.Fatalf("Copies allocates %v objects per warm call, want 0", allocs)
	}
}
