// Package verify certifies a simulation run against the paper's model
// (§3.1): the per-server capacity constraint (Eq. 5), the precedence
// constraint (Eq. 7) and completion accounting (Eqs. 6/8). It re-derives
// occupancy from the events alone rather than trusting the engine's
// ledger, so an engine bookkeeping bug fails certification, naming the
// rule, the task, job or server, and the slot.
//
// A Stream certifies a run as it happens, as the engine's observer, and
// holds only the live jobs, so a run of any length is certified with no
// trace kept. It compares what it re-derived with what the engine
// reports through sched.Context: the server's use, the job's allocation
// and the clone use at every copy event, and at every clock advance
// every server's use, the clone use, every live job's allocation and its
// tasks' live-copy counts and copy lists. Its by-product is the run's
// Ledger. Check certifies a recorded trace through a Stream.
package verify

import (
	"cmp"
	"fmt"
	"slices"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// Ledger tallies the events of one run. A clone is a copy placed while
// its task had a live copy; a clone win is a clone that completed its
// task. Wasted is the resource·slots that killed siblings held.
type Ledger struct {
	Arrived, Started, Finished, Advances int
	Placed, Clones, Completed, CloneWins int
	Killed, Lost                         int
	Wasted                               resources.Usage
}

// Stream is a certifying observer of one run. Create it with New, and
// read its verdict with Close.
type Stream struct {
	fleet  *cluster.Cluster
	engine sched.Context // nil while it certifies a recorded trace
	used   []resources.Vector
	clones resources.Vector // what clone copies hold
	jobs   map[workload.JobID]*liveJob
	ledger Ledger
	err    error
}

// liveJob is what the stream knows of one arrived, unfinished job.
type liveJob struct {
	job    *workload.Job
	phases []struct{ first, done int } // phase's first index in tasks; tasks completed
	tasks  []task
	left   int // tasks not yet completed
	alloc  resources.Vector
	end    int64 // slot of the last completion
	// moved marks a copy event since the last clock advance; version is
	// the job state's Version when compare last walked its tasks.
	moved   bool
	version uint32
}

// task holds its live copies in placement order, as Copies lists them.
type task struct {
	ref    workload.TaskRef
	done   bool
	n      int
	copies [workload.MaxCopies]sched.CopyStatus
}

func violation(rule string, slot int64, format string, args ...any) error {
	return fmt.Errorf("verify: %s at slot %d: %s", rule, slot, fmt.Sprintf(format, args...))
}

func newStream(fleet *cluster.Cluster) *Stream {
	return &Stream{fleet: fleet, used: make([]resources.Vector, fleet.Len()), jobs: make(map[workload.JobID]*liveJob)}
}

// New builds the engine cfg describes with a Stream attached, which
// observes every event ahead of cfg.Observe.
func New(cfg sim.Config) (*sim.Engine, *Stream, error) {
	s, next := newStream(cfg.Cluster), cfg.Observe
	cfg.Observe = func(o *sim.Observation) {
		if s.err == nil {
			s.err = s.observe(o)
		}
		if next != nil {
			next(o)
		}
	}
	e, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	s.engine = e
	return e, s, nil
}

// Close compares the stream's state with the engine's once more and
// returns the run's first violation, or nil.
func (s *Stream) Close() error {
	if s.err == nil {
		s.err = s.compare(s.engine.Now())
	}
	return s.err
}

// Ledger returns the run's tally so far.
func (s *Stream) Ledger() Ledger { return s.ledger }

func (s *Stream) observe(o *sim.Observation) error {
	j := s.jobs[o.Ref.Job]
	switch o.Kind {
	case sim.TraceArrive:
		// The job that arrives is the tail of the engine's job list.
		jobs := s.engine.Jobs()
		if len(jobs) == 0 || jobs[len(jobs)-1].Job.ID != o.Ref.Job || j != nil {
			return violation("arrival", o.Slot, "job %d arrives, but is not the new tail of the engine's jobs", o.Ref.Job)
		}
		s.arrive(jobs[len(jobs)-1].Job)
	case sim.TraceJobStart:
		s.ledger.Started++
	case sim.TraceJobDone:
		// Eq. (8): a job finishes in the slot of its last completion.
		if m := o.Job; j == nil || j.left > 0 || m.Finish != j.end || m.Flowtime != j.end-j.job.Arrival {
			return violation("Eq. 8 finish", o.Slot, "job %d reports finish %d and flowtime %d, which its completions do not",
				m.ID, m.Finish, m.Flowtime)
		}
		delete(s.jobs, o.Ref.Job)
		s.ledger.Finished++
	case sim.TraceAdvance:
		s.ledger.Advances++
		return s.compare(o.Slot)
	default:
		if err := s.copyEvent(j, &o.TraceEvent); err != nil || o.Kind == sim.TraceKill {
			return err
		}
		// The engine has accounted for a copy it places, completes or
		// loses by the time it reports it. (It may report a kill before
		// it releases the winner.)
		used, alloc := s.engine.Cluster().Server(o.Server).Used(), s.engine.Allocation(o.Ref.Job)
		if used != s.used[o.Server] || alloc != j.alloc || s.engine.CloneUsage() != s.clones {
			return violation("engine ledger", o.Slot, "%v on server %d: the engine reports %v used there, allocation %v and clone use %v; the copies hold %v, %v and %v",
				o.Ref, o.Server, used, alloc, s.engine.CloneUsage(), s.used[o.Server], j.alloc, s.clones)
		}
	}
	return nil
}

func (s *Stream) arrive(j *workload.Job) {
	lj := &liveJob{job: j, phases: make([]struct{ first, done int }, len(j.Phases)), tasks: make([]task, j.TotalTasks())}
	for k := range j.Phases {
		lj.phases[k].first = lj.left
		for l := 0; l < j.Phases[k].Tasks; l++ {
			lj.tasks[lj.left].ref = workload.TaskRef{Job: j.ID, Phase: workload.PhaseID(k), Index: l}
			lj.left++
		}
	}
	s.jobs[j.ID] = lj
	s.ledger.Arrived++
}

// copyEvent applies one copy event of live job j (nil if there is
// none): a placement charges the server and the job, a completion, kill
// or loss releases the copy it names.
func (s *Stream) copyEvent(j *liveJob, ev *sim.TraceEvent) error {
	ref, slot := ev.Ref, ev.Slot
	switch {
	case j == nil:
		return violation("copy", slot, "event for %v of unknown job %d, or one that finished", ref, ref.Job)
	case ref.Phase < 0 || int(ref.Phase) >= len(j.phases) || ref.Index < 0 || ref.Index >= j.job.Phases[ref.Phase].Tasks:
		return violation("copy", slot, "event for out-of-range task %v", ref)
	case !s.fleet.Contains(ev.Server):
		return violation("copy", slot, "%v event on unknown server %d", ref, ev.Server)
	case ev.Kind > sim.TraceLost:
		return violation("copy", slot, "%v event of unknown kind %d", ref, ev.Kind)
	}
	ph, t := &j.job.Phases[ref.Phase], &j.tasks[j.phases[ref.Phase].first+ref.Index]
	j.moved = true
	if ev.Kind == sim.TracePlace {
		if err := s.place(j, t, ev); err != nil {
			return err
		}
	} else {
		if t.done {
			return violation("Eq. 6 completion", slot, "%v completed twice, or a copy of it ended after", ref)
		}
		i := slices.IndexFunc(t.copies[:t.n], func(c sched.CopyStatus) bool { return c.Server == ev.Server && c.Clone == ev.Clone })
		if i < 0 {
			return violation("copy", slot, "%v ends a copy, but has no live copy on server %d", ref, ev.Server)
		}
		c := t.copies[i]
		copy(t.copies[i:t.n], t.copies[i+1:t.n])
		t.n--
		s.used[ev.Server] = s.used[ev.Server].Sub(ev.Demand)
		j.alloc = j.alloc.Sub(ev.Demand)
		if c.Clone {
			s.clones = s.clones.Sub(ev.Demand)
		}
		switch ev.Kind {
		case sim.TraceKill:
			s.ledger.Killed++
			s.ledger.Wasted.AddFor(ev.Demand, slot-c.Start)
		case sim.TraceLost:
			s.ledger.Lost++
		case sim.TraceComplete:
			t.done, j.end = true, slot
			j.phases[ref.Phase].done++
			j.left--
			s.ledger.Completed++
			if c.Clone {
				s.ledger.CloneWins++
			}
		}
	}
	// Checked last, so an oversized copy reports the capacity it broke.
	if ev.Demand != ph.Demand {
		return violation("copy", slot, "%v holds %v, its phase demands %v", ref, ev.Demand, ph.Demand)
	}
	for i := 0; j.left == 0 && i < len(j.tasks); i++ {
		if t := &j.tasks[i]; t.n != 0 {
			return violation("Eq. 6 completion", slot, "task %v left %d copies running when its job finished", t.ref, t.n)
		}
	}
	return nil
}

// place charges a copy of task t to its server and its job.
func (s *Stream) place(j *liveJob, t *task, ev *sim.TraceEvent) error {
	ref, slot := ev.Ref, ev.Slot
	if t.done {
		return violation("copy", slot, "placement after completion for %v", ref)
	}
	if slot < j.job.Arrival {
		return violation("arrival", slot, "%v placed before its job arrives at %d", ref, j.job.Arrival)
	}
	// Eq. (7): a task cannot start before every parent phase completed.
	for _, par := range j.job.Phases[ref.Phase].Parents {
		if done := j.phases[par].done; done < j.job.Phases[par].Tasks {
			return violation("Eq. 7 precedence", slot, "%v placed before parent phase %d finished (%d/%d tasks)",
				ref, par, done, j.job.Phases[par].Tasks)
		}
	}
	if t.n == workload.MaxCopies {
		return violation("copy cap", slot, "%v placed with %d copies live", ref, t.n)
	}
	u, capacity := &s.used[ev.Server], s.fleet.Server(ev.Server).Capacity
	if *u = u.Add(ev.Demand); !u.Fits(capacity) {
		return violation("Eq. 5 capacity", slot, "%v puts server %d over capacity: %v > %v", ref, ev.Server, *u, capacity)
	}
	t.copies[t.n] = sched.CopyStatus{Server: ev.Server, Start: slot, Clone: t.n > 0}
	j.alloc = j.alloc.Add(ev.Demand)
	s.ledger.Placed++
	if t.n > 0 {
		s.clones = s.clones.Add(ev.Demand)
		s.ledger.Clones++
	}
	t.n++
	return nil
}

// compare checks what the stream re-derived against what the engine
// reports: each server's use, the clone use, and each live job's
// allocation, and each of its tasks' live-copy count and copy list.
func (s *Stream) compare(slot int64) error {
	e := s.engine
	for i, srv := range e.Cluster().Servers() {
		if srv.Used() != s.used[i] {
			return violation("engine ledger", slot, "server %d: the engine reports %v used, its copies hold %v", i, srv.Used(), s.used[i])
		}
	}
	if got := e.CloneUsage(); got != s.clones {
		return violation("engine ledger", slot, "the engine reports clone use %v, the clones hold %v", got, s.clones)
	}
	jobs := e.Jobs()
	if len(jobs) != len(s.jobs) {
		return violation("engine ledger", slot, "the engine holds %d live jobs, the stream %d", len(jobs), len(s.jobs))
	}
	for _, js := range jobs {
		id, j := js.Job.ID, s.jobs[js.Job.ID]
		if j == nil {
			return violation("engine ledger", slot, "job %d is live in the engine, not in the stream", id)
		}
		if got := e.Allocation(id); got != j.alloc {
			return violation("engine ledger", slot, "job %d: the engine reports allocation %v, its copies hold %v", id, got, j.alloc)
		}
		// A job's copies are unchanged while its Version is (the
		// JobState.Version contract), and the stream's without an event.
		if !j.moved && js.Version() == j.version {
			continue
		}
		j.moved, j.version = false, js.Version()
		for i := range j.tasks {
			t := &j.tasks[i]
			if n := js.LiveCopies(t.ref.Phase, t.ref.Index); n != t.n {
				return violation("engine ledger", slot, "task %v: the engine counts %d live copies, the stream holds %d", t.ref, n, t.n)
			}
			if got, listed := e.Copies(t.ref), t.copies[:t.n]; !slices.Equal(got, listed) {
				return violation("engine ledger", slot, "task %v: the engine lists copies %v, the stream holds %v", t.ref, got, listed)
			}
		}
	}
	return nil
}

// Check certifies a recorded trace. fleet must be the cluster the run
// used (only capacities and server count are read); jobs the workload,
// every task of which must complete (Eq. 6).
func Check(trace []sim.TraceEvent, fleet *cluster.Cluster, jobs []*workload.Job) error {
	s := newStream(fleet)
	for _, j := range jobs {
		s.arrive(j)
	}
	bySlot := func(a, b sim.TraceEvent) int { return cmp.Compare(a.Slot, b.Slot) }
	if !slices.IsSortedFunc(trace, bySlot) {
		trace = slices.Clone(trace)
		slices.SortStableFunc(trace, bySlot)
	}
	end := int64(0)
	for i := range trace {
		if err := s.copyEvent(s.jobs[trace[i].Ref.Job], &trace[i]); err != nil {
			return err
		}
		end = trace[i].Slot
	}
	for _, job := range jobs {
		j := s.jobs[job.ID]
		if i := slices.IndexFunc(j.tasks, func(t task) bool { return !t.done }); i >= 0 {
			return violation("Eq. 6 completion", end, "task %v never completed", j.tasks[i].ref)
		}
	}
	return nil
}
