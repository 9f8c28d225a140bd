package workload

import (
	"fmt"
	"sort"

	"dollymp/internal/resources"
)

// TaskState tracks the lifecycle of one logical task (which may have
// several running copies under cloning).
type TaskState int32

// Task lifecycle states.
const (
	TaskPending TaskState = iota // waiting for parents or resources
	TaskRunning                  // at least one copy placed
	TaskDone                     // first copy finished
)

// taskCell packs a task's lifecycle state with its live-copy count
// (original included) into the eight bytes the state alone would take,
// so the count costs a queued job nothing.
type taskCell struct {
	state  TaskState
	copies int32
}

// phaseState is one phase's entry in a JobState: its task cells, its
// running list, its counters, and its place in the critical-path walk.
type phaseState struct {
	// tasks[l] is the state of task l and the number of copies of it that
	// are running; every phase's cells share one backing array.
	tasks []taskCell
	// running holds the indices of running tasks in ascending order, so
	// schedulers iterate running tasks in O(running) instead of O(phase
	// size). It is nil until the job's first MarkRunning, then a window
	// of one backing array with capacity exactly the phase's task count:
	// it never grows, so insertSorted never allocates and never writes
	// into the next phase's window.
	running []int
	// done counts the finished tasks and pending the tasks with no copy
	// placed; firstPending is a monotone scan hint for NextPending.
	done, pending, firstPending int32
	// order is the phase at this index of the job's topological order
	// (TopoOrder's order), filled the first time the critical path is
	// walked.
	order int32
	// finish is the critical-path walk's scratch: the phase's remaining
	// finish time. While the order is being built it counts the phase's
	// parents not yet ordered.
	finish   float64
	complete bool // every task in the phase finished
}

// JobState is the mutable scheduling view of one job: which tasks are
// pending/running/done, and the updated volume and processing time of
// Eqs. (16)–(17). It is owned by the simulator's goroutine.
type JobState struct {
	Job *Job

	// phases[k] is phase k's entry; the whole state is three objects —
	// the JobState, this array and the task cells — plus the running
	// lists' backing array from the first placement on.
	phases []phaseState

	// Finish is f_j in slots; -1 while the job is running.
	Finish int64
	// FirstStart is the slot at which the first task copy was placed;
	// -1 before then. RunningTime (Fig. 4b/5) = Finish − FirstStart.
	FirstStart int64

	// Usage accumulates the per-job resource-time product across all
	// copies (§6.3.1's resource-usage metric).
	Usage resources.Usage

	// CopiesLaunched counts all copies ever launched, clones included;
	// TasksCloned counts tasks that received at least one clone.
	CopiesLaunched int
	TasksCloned    int

	// version counts task-state mutations; see Version. The order flags
	// share its word.
	version uint32
	// sorted reports that phases[i].order holds the topological order,
	// cyclic that the DAG has none (the walk then answers 0).
	sorted, cyclic bool
}

// NewJobState initializes tracking for a validated job.
func NewJobState(j *Job) *JobState {
	s := new(JobState)
	s.Init(j)
	return s
}

// Init sets s up to track a validated job from its start, as
// NewJobState does, for a caller that keeps the JobState inside a
// record of its own. Whatever s held before is dropped.
func (s *JobState) Init(j *Job) {
	tasks := 0
	for k := range j.Phases {
		tasks += j.Phases[k].Tasks
	}
	*s = JobState{
		Job:        j,
		phases:     make([]phaseState, len(j.Phases)),
		Finish:     -1,
		FirstStart: -1,
	}
	cells := make([]taskCell, tasks)
	for k := range s.phases {
		n := j.Phases[k].Tasks
		ph := &s.phases[k]
		ph.tasks, cells = cells[:n:n], cells[n:]
		ph.pending = int32(n)
	}
}

// Version is a mutation stamp: MarkRunning, MarkDone, MarkPending and
// DropCopy advance it, and nothing else does. Everything a scheduler
// derives from task states — the ready phases, the next pending task,
// the running lists and copy counts — is unchanged while Version is, so
// a scheduler that keeps such state between decisions revalidates a job
// only when its stamp has moved.
func (s *JobState) Version() uint32 { return s.version }

// Task returns the state of task (k, l).
func (s *JobState) Task(k PhaseID, l int) TaskState { return s.phases[k].tasks[l].state }

// MarkRunning records one more placed copy of task (k, l): the first
// moves the task from pending to running, every later one is a clone.
// It is a no-op for done tasks.
func (s *JobState) MarkRunning(k PhaseID, l int) {
	s.version++
	ph := &s.phases[k]
	t := &ph.tasks[l]
	switch t.state {
	case TaskDone:
		return
	case TaskPending:
		t.state = TaskRunning
		ph.pending--
		if ph.running == nil {
			s.makeRunningLists()
		}
		ph.running = insertSorted(ph.running, l)
	}
	t.copies++
}

// makeRunningLists gives every phase its empty running list, each a
// window of one backing array as long as the phase.
func (s *JobState) makeRunningLists() {
	tasks := 0
	for k := range s.phases {
		tasks += len(s.phases[k].tasks)
	}
	back := make([]int, tasks)
	for k := range s.phases {
		n := len(s.phases[k].tasks)
		s.phases[k].running, back = back[:0:n], back[n:]
	}
}

// DropCopy records that one copy of running task (k, l) was lost
// without finishing it (its server failed). Losing the last copy
// reverts the task to pending.
func (s *JobState) DropCopy(k PhaseID, l int) {
	s.version++
	t := &s.phases[k].tasks[l]
	if t.state != TaskRunning {
		return
	}
	if t.copies--; t.copies <= 0 {
		s.MarkPending(k, l)
	}
}

// LiveCopies returns the number of running copies of task (k, l).
func (s *JobState) LiveCopies(k PhaseID, l int) int { return int(s.phases[k].tasks[l].copies) }

// MarkDone records completion of task (k, l). It returns an error on a
// double completion. Phase and job completion flags update automatically.
func (s *JobState) MarkDone(k PhaseID, l int) error {
	s.version++
	ph := &s.phases[k]
	switch ph.tasks[l].state {
	case TaskDone:
		return fmt.Errorf("workload: task %v already done", TaskRef{s.Job.ID, k, l})
	case TaskPending:
		ph.pending--
	case TaskRunning:
		ph.running = removeSorted(ph.running, l)
	}
	// The winner's siblings die with it.
	ph.tasks[l] = taskCell{state: TaskDone}
	ph.done++
	if int(ph.done) == len(ph.tasks) {
		ph.complete = true
	}
	return nil
}

// MarkPending reverts a running task to pending — the transition a
// server failure forces when every copy of a task is lost. It is a no-op
// for pending or done tasks.
func (s *JobState) MarkPending(k PhaseID, l int) {
	ph := &s.phases[k]
	if ph.tasks[l].state != TaskRunning {
		return
	}
	s.version++
	ph.tasks[l] = taskCell{state: TaskPending}
	ph.running = removeSorted(ph.running, l)
	ph.pending++
	if int32(l) < ph.firstPending {
		ph.firstPending = int32(l)
	}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// PhaseReady reports whether phase k's parents have all completed, i.e.
// constraint (7) allows its tasks to start.
func (s *JobState) PhaseReady(k PhaseID) bool {
	for _, par := range s.Job.Phases[k].Parents {
		if !s.phases[par].complete {
			return false
		}
	}
	return true
}

// Done reports whether every phase completed.
func (s *JobState) Done() bool {
	for k := range s.phases {
		if !s.phases[k].complete {
			return false
		}
	}
	return true
}

// RemainingTasks returns the number of not-yet-finished tasks in phase k
// (the n_j^k(t) of Eq. 16).
func (s *JobState) RemainingTasks(k PhaseID) int {
	return s.Job.Phases[k].Tasks - int(s.phases[k].done)
}

// PendingTasks returns the indices of tasks in phase k that are still
// pending (no copy placed).
func (s *JobState) PendingTasks(k PhaseID) []int {
	ph := &s.phases[k]
	if ph.pending == 0 {
		return nil
	}
	out := make([]int, 0, ph.pending)
	for l, t := range ph.tasks {
		if t.state == TaskPending {
			out = append(out, l)
		}
	}
	return out
}

// PendingCount returns the number of pending tasks in phase k in O(1).
func (s *JobState) PendingCount(k PhaseID) int { return int(s.phases[k].pending) }

// NextPending returns the first pending task index ≥ from in phase k, or
// false if none. Amortized O(1) when scanned monotonically.
func (s *JobState) NextPending(k PhaseID, from int) (int, bool) {
	ph := &s.phases[k]
	if ph.pending == 0 {
		return 0, false
	}
	hint := int(ph.firstPending)
	if from < hint {
		from = hint
	}
	for l := from; l < len(ph.tasks); l++ {
		if ph.tasks[l].state == TaskPending {
			if from == hint {
				ph.firstPending = int32(l)
			}
			return l, true
		}
	}
	return 0, false
}

// RunningTasks returns the indices of tasks in phase k that are running,
// in ascending order, in O(running).
func (s *JobState) RunningTasks(k PhaseID) []int {
	running := s.phases[k].running
	if len(running) == 0 {
		return nil
	}
	out := make([]int, len(running))
	copy(out, running)
	return out
}

// RunningTasksView is RunningTasks without the copy: it shares the
// JobState's internal storage. Callers must not modify the slice and
// must not hold it across a Mark* mutation — it is for read-only scans
// within one scheduling decision.
func (s *JobState) RunningTasksView(k PhaseID) []int { return s.phases[k].running }

// RunningCount returns the number of running tasks in phase k in O(1).
func (s *JobState) RunningCount(k PhaseID) int { return len(s.phases[k].running) }

// ReadyPhases returns the phases whose parents are complete but which are
// not themselves complete, in index order — the phases Algorithm 2 may
// draw tasks from.
func (s *JobState) ReadyPhases() []PhaseID {
	return s.AppendReadyPhases(nil)
}

// AppendReadyPhases appends the ready phases to dst and returns it —
// ReadyPhases for callers that reuse a buffer across decisions.
func (s *JobState) AppendReadyPhases(dst []PhaseID) []PhaseID {
	for k := range s.phases {
		if !s.phases[k].complete && s.PhaseReady(PhaseID(k)) {
			dst = append(dst, PhaseID(k))
		}
	}
	return dst
}

// UpdatedVolume implements Eq. (16): the effective volume restricted to
// unfinished work,
//
//	v_j(t) = Σ_{k ∈ Φ_j(t)} n_j^k(t) · e_j^k · d_j^k.
func (s *JobState) UpdatedVolume(total resources.Vector, r float64) float64 {
	return s.UpdatedVolumeWith(total, func(k PhaseID) float64 {
		return s.Job.Phases[k].EffectiveDuration(r)
	})
}

// UpdatedVolumeWith is UpdatedVolume with a caller-supplied effective
// duration per phase — how estimated (rather than declared) statistics
// enter Eq. (16).
func (s *JobState) UpdatedVolumeWith(total resources.Vector, eff func(PhaseID) float64) float64 {
	v := 0.0
	for k := range s.Job.Phases {
		rem := s.RemainingTasks(PhaseID(k))
		if rem == 0 {
			continue
		}
		p := &s.Job.Phases[k]
		v += float64(rem) * eff(PhaseID(k)) * p.DominantShare(total)
	}
	return v
}

// UpdatedProcessingTime implements Eq. (17): the critical path restricted
// to unfinished phases.
func (s *JobState) UpdatedProcessingTime(r float64) float64 {
	return s.UpdatedProcessingTimeWith(func(k PhaseID) float64 {
		return s.Job.Phases[k].EffectiveDuration(r)
	})
}

// UpdatedProcessingTimeWith is UpdatedProcessingTime with a caller-
// supplied effective duration per phase.
func (s *JobState) UpdatedProcessingTimeWith(eff func(PhaseID) float64) float64 {
	phases := s.phases
	if len(phases) == 1 {
		// Single-phase jobs (the common trace shape) have a trivial
		// critical path: no ordering, no finish times.
		if phases[0].complete {
			return 0
		}
		return eff(0)
	}
	if !s.sorted {
		s.cyclic = !s.sortPhases()
		s.sorted = true
	}
	if s.cyclic {
		return 0
	}
	longest := 0.0
	for i := range phases {
		k := PhaseID(phases[i].order)
		ph := &phases[k]
		if ph.complete {
			ph.finish = 0 // finished phases contribute no remaining length
			continue
		}
		start := 0.0
		for _, par := range s.Job.Phases[k].Parents {
			if f := phases[par].finish; f > start {
				start = f
			}
		}
		ph.finish = start + eff(k)
		if ph.finish > longest {
			longest = ph.finish
		}
	}
	return longest
}

// sortPhases writes the job's topological order into phases[i].order
// and reports false for a cyclic DAG. It is TopoOrder's Kahn walk, in
// the same order, without its temporaries: the queue is the order
// itself, each phase's finish counts its parents not yet ordered, and a
// phase's children are found by scanning every phase's parent list
// in index order, the order TopoOrder's child lists hold them in.
func (s *JobState) sortPhases() bool {
	phases := s.phases
	tail := 0
	for k := range phases {
		n := len(s.Job.Phases[k].Parents)
		phases[k].finish = float64(n)
		if n == 0 {
			phases[tail].order = int32(k)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		done := PhaseID(phases[head].order)
		for c := range phases {
			for _, par := range s.Job.Phases[c].Parents {
				if par != done {
					continue
				}
				if phases[c].finish--; phases[c].finish == 0 {
					phases[tail].order = int32(c)
					tail++
				}
			}
		}
	}
	return tail == len(phases)
}

// Flowtime returns f_j − a_j, or -1 if the job has not finished.
func (s *JobState) Flowtime() int64 {
	if s.Finish < 0 {
		return -1
	}
	return s.Finish - s.Job.Arrival
}

// RunningTime returns f_j minus the first task start, or -1 if the job
// has not finished. This is the "job execution time" of §6.2.
func (s *JobState) RunningTime() int64 {
	if s.Finish < 0 || s.FirstStart < 0 {
		return -1
	}
	return s.Finish - s.FirstStart
}
