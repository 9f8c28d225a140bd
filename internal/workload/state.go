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

// JobState is the mutable scheduling view of one job: which tasks are
// pending/running/done, and the updated volume and processing time of
// Eqs. (16)–(17). It is owned by the simulator's goroutine.
type JobState struct {
	Job *Job

	// task[k][l] is the state of task l in phase k and the number of
	// copies of it that are running.
	task [][]taskCell
	// doneInPhase[k] counts finished tasks in phase k.
	doneInPhase []int
	// phaseDone[k] reports whether all tasks in phase k completed.
	phaseDone []bool
	// runningList[k] holds the indices of running tasks in phase k in
	// ascending order, so schedulers iterate running tasks in O(running)
	// instead of O(phase size).
	runningList [][]int
	// pendingCount[k] counts pending tasks in phase k; firstPending[k]
	// is a monotone scan hint for NextPending.
	pendingCount []int
	firstPending []int

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

	// topo caches Job.TopoOrder() — the DAG never changes after
	// validation, but Eq. (17) walks it at every priority recompute.
	// finish is the reusable critical-path scratch of the same walk.
	topo     []PhaseID
	topoBad  bool
	topoDone bool
	// version counts task-state mutations; see Version. It shares the
	// flags' word, so it does not grow the struct past its size class.
	version uint32
	finish  []float64
}

// NewJobState initializes tracking for a validated job.
func NewJobState(j *Job) *JobState {
	s := &JobState{
		Job:          j,
		task:         make([][]taskCell, len(j.Phases)),
		doneInPhase:  make([]int, len(j.Phases)),
		phaseDone:    make([]bool, len(j.Phases)),
		runningList:  make([][]int, len(j.Phases)),
		pendingCount: make([]int, len(j.Phases)),
		firstPending: make([]int, len(j.Phases)),
		Finish:       -1,
		FirstStart:   -1,
	}
	for k := range j.Phases {
		s.task[k] = make([]taskCell, j.Phases[k].Tasks)
		s.pendingCount[k] = j.Phases[k].Tasks
	}
	return s
}

// Version is a mutation stamp: MarkRunning, MarkDone, MarkPending and
// DropCopy advance it, and nothing else does. Everything a scheduler
// derives from task states — the ready phases, the next pending task,
// the running lists and copy counts — is unchanged while Version is, so
// a scheduler that keeps such state between decisions revalidates a job
// only when its stamp has moved.
func (s *JobState) Version() uint32 { return s.version }

// Task returns the state of task (k, l).
func (s *JobState) Task(k PhaseID, l int) TaskState { return s.task[k][l].state }

// MarkRunning records one more placed copy of task (k, l): the first
// moves the task from pending to running, every later one is a clone.
// It is a no-op for done tasks.
func (s *JobState) MarkRunning(k PhaseID, l int) {
	s.version++
	t := &s.task[k][l]
	switch t.state {
	case TaskDone:
		return
	case TaskPending:
		t.state = TaskRunning
		s.pendingCount[k]--
		s.runningList[k] = insertSorted(s.runningList[k], l)
	}
	t.copies++
}

// DropCopy records that one copy of running task (k, l) was lost
// without finishing it (its server failed). Losing the last copy
// reverts the task to pending.
func (s *JobState) DropCopy(k PhaseID, l int) {
	s.version++
	t := &s.task[k][l]
	if t.state != TaskRunning {
		return
	}
	if t.copies--; t.copies <= 0 {
		s.MarkPending(k, l)
	}
}

// LiveCopies returns the number of running copies of task (k, l).
func (s *JobState) LiveCopies(k PhaseID, l int) int { return int(s.task[k][l].copies) }

// MarkDone records completion of task (k, l). It returns an error on a
// double completion. Phase and job completion flags update automatically.
func (s *JobState) MarkDone(k PhaseID, l int) error {
	s.version++
	switch s.task[k][l].state {
	case TaskDone:
		return fmt.Errorf("workload: task %v already done", TaskRef{s.Job.ID, k, l})
	case TaskPending:
		s.pendingCount[k]--
	case TaskRunning:
		s.runningList[k] = removeSorted(s.runningList[k], l)
	}
	// The winner's siblings die with it.
	s.task[k][l] = taskCell{state: TaskDone}
	s.doneInPhase[k]++
	if s.doneInPhase[k] == s.Job.Phases[k].Tasks {
		s.phaseDone[k] = true
	}
	return nil
}

// MarkPending reverts a running task to pending — the transition a
// server failure forces when every copy of a task is lost. It is a no-op
// for pending or done tasks.
func (s *JobState) MarkPending(k PhaseID, l int) {
	if s.task[k][l].state != TaskRunning {
		return
	}
	s.version++
	s.task[k][l] = taskCell{state: TaskPending}
	s.runningList[k] = removeSorted(s.runningList[k], l)
	s.pendingCount[k]++
	if l < s.firstPending[k] {
		s.firstPending[k] = l
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
		if !s.phaseDone[par] {
			return false
		}
	}
	return true
}

// Done reports whether every phase completed.
func (s *JobState) Done() bool {
	for _, d := range s.phaseDone {
		if !d {
			return false
		}
	}
	return true
}

// RemainingTasks returns the number of not-yet-finished tasks in phase k
// (the n_j^k(t) of Eq. 16).
func (s *JobState) RemainingTasks(k PhaseID) int {
	return s.Job.Phases[k].Tasks - s.doneInPhase[k]
}

// PendingTasks returns the indices of tasks in phase k that are still
// pending (no copy placed).
func (s *JobState) PendingTasks(k PhaseID) []int {
	if s.pendingCount[k] == 0 {
		return nil
	}
	out := make([]int, 0, s.pendingCount[k])
	for l, t := range s.task[k] {
		if t.state == TaskPending {
			out = append(out, l)
		}
	}
	return out
}

// PendingCount returns the number of pending tasks in phase k in O(1).
func (s *JobState) PendingCount(k PhaseID) int { return s.pendingCount[k] }

// NextPending returns the first pending task index ≥ from in phase k, or
// false if none. Amortized O(1) when scanned monotonically.
func (s *JobState) NextPending(k PhaseID, from int) (int, bool) {
	if s.pendingCount[k] == 0 {
		return 0, false
	}
	if from < s.firstPending[k] {
		from = s.firstPending[k]
	}
	tasks := s.task[k]
	for l := from; l < len(tasks); l++ {
		if tasks[l].state == TaskPending {
			if from == s.firstPending[k] {
				s.firstPending[k] = l
			}
			return l, true
		}
	}
	return 0, false
}

// RunningTasks returns the indices of tasks in phase k that are running,
// in ascending order, in O(running).
func (s *JobState) RunningTasks(k PhaseID) []int {
	if len(s.runningList[k]) == 0 {
		return nil
	}
	out := make([]int, len(s.runningList[k]))
	copy(out, s.runningList[k])
	return out
}

// RunningTasksView is RunningTasks without the copy: it shares the
// JobState's internal storage. Callers must not modify the slice and
// must not hold it across a Mark* mutation — it is for read-only scans
// within one scheduling decision.
func (s *JobState) RunningTasksView(k PhaseID) []int { return s.runningList[k] }

// RunningCount returns the number of running tasks in phase k in O(1).
func (s *JobState) RunningCount(k PhaseID) int { return len(s.runningList[k]) }

// ReadyPhases returns the phases whose parents are complete but which are
// not themselves complete, in index order — the phases Algorithm 2 may
// draw tasks from.
func (s *JobState) ReadyPhases() []PhaseID {
	return s.AppendReadyPhases(nil)
}

// AppendReadyPhases appends the ready phases to dst and returns it —
// ReadyPhases for callers that reuse a buffer across decisions.
func (s *JobState) AppendReadyPhases(dst []PhaseID) []PhaseID {
	for k := range s.Job.Phases {
		if !s.phaseDone[k] && s.PhaseReady(PhaseID(k)) {
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
	if len(s.Job.Phases) == 1 {
		// Single-phase jobs (the common trace shape) have a trivial
		// critical path: no ordering, no finish vector.
		if s.phaseDone[0] {
			return 0
		}
		return eff(0)
	}
	order, ok := s.topoOrder()
	if !ok {
		return 0
	}
	if cap(s.finish) < len(s.Job.Phases) {
		s.finish = make([]float64, len(s.Job.Phases))
	}
	finish := s.finish[:len(s.Job.Phases)]
	longest := 0.0
	for _, k := range order {
		if s.phaseDone[k] {
			finish[k] = 0 // finished phases contribute no remaining length
			continue
		}
		p := &s.Job.Phases[k]
		start := 0.0
		for _, par := range p.Parents {
			if finish[par] > start {
				start = finish[par]
			}
		}
		finish[k] = start + eff(PhaseID(k))
		if finish[k] > longest {
			longest = finish[k]
		}
	}
	return longest
}

// topoOrder returns the cached topological order of the job's phases,
// or ok=false for an invalid (cyclic) DAG.
func (s *JobState) topoOrder() ([]PhaseID, bool) {
	if !s.topoDone {
		order, err := s.Job.TopoOrder()
		s.topo, s.topoBad, s.topoDone = order, err != nil, true
	}
	return s.topo, !s.topoBad
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
