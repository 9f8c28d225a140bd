package workload

import (
	"testing"
	"testing/quick"

	"dollymp/internal/resources"
)

func widePhase(tasks int) *JobState {
	j := &Job{ID: 1, Name: "w", App: "t", Phases: []Phase{{
		Name: "p", Tasks: tasks, Demand: resources.Cores(1, 1), MeanDuration: 5,
	}}}
	return NewJobState(j)
}

func TestCountsTrackTransitions(t *testing.T) {
	s := widePhase(5)
	if s.PendingCount(0) != 5 || s.RunningCount(0) != 0 {
		t.Fatalf("initial counts: %d/%d", s.PendingCount(0), s.RunningCount(0))
	}
	s.MarkRunning(0, 2)
	s.MarkRunning(0, 4)
	if s.PendingCount(0) != 3 || s.RunningCount(0) != 2 {
		t.Fatalf("after running: %d/%d", s.PendingCount(0), s.RunningCount(0))
	}
	if got := s.RunningTasks(0); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("running list: %v", got)
	}
	if err := s.MarkDone(0, 2); err != nil {
		t.Fatal(err)
	}
	if s.RunningCount(0) != 1 || s.PendingCount(0) != 3 {
		t.Fatalf("after done-from-running: %d/%d", s.RunningCount(0), s.PendingCount(0))
	}
	// Done directly from pending also decrements pending.
	if err := s.MarkDone(0, 0); err != nil {
		t.Fatal(err)
	}
	if s.PendingCount(0) != 2 {
		t.Fatalf("after done-from-pending: %d", s.PendingCount(0))
	}
}

func TestMarkRunningIdempotent(t *testing.T) {
	s := widePhase(3)
	s.MarkRunning(0, 1)
	s.MarkRunning(0, 1) // second call must not double-count
	if s.PendingCount(0) != 2 || s.RunningCount(0) != 1 {
		t.Fatalf("counts: %d/%d", s.PendingCount(0), s.RunningCount(0))
	}
}

// TestLiveCopies follows one task's copy count through every
// transition: each MarkRunning is one placed copy, DropCopy is a copy
// lost to a failure (the last one reverts the task to pending), and
// completion kills whatever is left.
func TestLiveCopies(t *testing.T) {
	s := widePhase(3)
	s.MarkRunning(0, 1)
	s.MarkRunning(0, 1)
	s.MarkRunning(0, 1)
	if s.LiveCopies(0, 0) != 0 || s.LiveCopies(0, 1) != 3 || s.LiveCopies(0, 2) != 0 {
		t.Fatalf("after three copies: %d %d %d", s.LiveCopies(0, 0), s.LiveCopies(0, 1), s.LiveCopies(0, 2))
	}
	s.DropCopy(0, 1)
	if s.LiveCopies(0, 1) != 2 || s.Task(0, 1) != TaskRunning {
		t.Fatalf("after one loss: %d copies, state %v", s.LiveCopies(0, 1), s.Task(0, 1))
	}
	s.DropCopy(0, 1)
	s.DropCopy(0, 1)
	if s.LiveCopies(0, 1) != 0 || s.Task(0, 1) != TaskPending || s.PendingCount(0) != 3 {
		t.Fatalf("after losing all: %d copies, state %v", s.LiveCopies(0, 1), s.Task(0, 1))
	}
	s.DropCopy(0, 1) // nothing left to lose
	s.MarkRunning(0, 1)
	s.MarkRunning(0, 1)
	if err := s.MarkDone(0, 1); err != nil {
		t.Fatal(err)
	}
	s.MarkRunning(0, 1) // a done task takes no copies
	if s.LiveCopies(0, 1) != 0 {
		t.Fatalf("done task holds %d copies", s.LiveCopies(0, 1))
	}
}

func TestNextPending(t *testing.T) {
	s := widePhase(5)
	s.MarkRunning(0, 0)
	s.MarkRunning(0, 2)
	if got, ok := s.NextPending(0, 0); !ok || got != 1 {
		t.Fatalf("NextPending(0): %d %v", got, ok)
	}
	if got, ok := s.NextPending(0, 2); !ok || got != 3 {
		t.Fatalf("NextPending(2): %d %v", got, ok)
	}
	if got, ok := s.NextPending(0, 4); !ok || got != 4 {
		t.Fatalf("NextPending(4): %d %v", got, ok)
	}
	if _, ok := s.NextPending(0, 5); ok {
		t.Fatal("past the end should be false")
	}
	// Exhaust everything.
	for l := 0; l < 5; l++ {
		if err := s.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.NextPending(0, 0); ok {
		t.Fatal("no pending should remain")
	}
}

func TestMarkPendingRevertsRunning(t *testing.T) {
	s := widePhase(4)
	s.MarkRunning(0, 1)
	s.MarkRunning(0, 3)
	s.MarkPending(0, 3)
	if s.PendingCount(0) != 3 || s.RunningCount(0) != 1 {
		t.Fatalf("counts: %d/%d", s.PendingCount(0), s.RunningCount(0))
	}
	if got := s.RunningTasks(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("running list: %v", got)
	}
	// No-op on pending or done tasks.
	s.MarkPending(0, 0)
	if s.PendingCount(0) != 3 {
		t.Fatal("MarkPending on pending mutated counts")
	}
	if err := s.MarkDone(0, 1); err != nil {
		t.Fatal(err)
	}
	s.MarkPending(0, 1)
	if s.Task(0, 1) != TaskDone {
		t.Fatal("MarkPending resurrected a done task")
	}
}

func TestMarkPendingResetsScanHint(t *testing.T) {
	s := widePhase(4)
	// Drive the hint forward.
	s.MarkRunning(0, 0)
	s.MarkRunning(0, 1)
	if got, _ := s.NextPending(0, 0); got != 2 {
		t.Fatalf("hint: %d", got)
	}
	// Revert task 0: it must be visible again.
	s.MarkPending(0, 0)
	if got, ok := s.NextPending(0, 0); !ok || got != 0 {
		t.Fatalf("after revert: %d %v", got, ok)
	}
}

// Property: counts always agree with a full scan, through random
// transition sequences.
func TestCountsMatchScanProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := widePhase(8)
		for _, op := range ops {
			l := int(op) % 8
			switch (op / 8) % 3 {
			case 0:
				s.MarkRunning(0, l)
			case 1:
				s.MarkPending(0, l)
			case 2:
				if s.Task(0, l) != TaskDone {
					if err := s.MarkDone(0, l); err != nil {
						return false
					}
				}
			}
			pend, run := 0, 0
			for i := 0; i < 8; i++ {
				switch s.Task(0, i) {
				case TaskPending:
					pend++
				case TaskRunning:
					run++
				}
			}
			if pend != s.PendingCount(0) || run != s.RunningCount(0) {
				return false
			}
			if len(s.RunningTasks(0)) != run {
				return false
			}
			// NextPending from 0 returns the first scanned pending.
			want, found := -1, false
			for i := 0; i < 8; i++ {
				if s.Task(0, i) == TaskPending {
					want, found = i, true
					break
				}
			}
			got, ok := s.NextPending(0, 0)
			if ok != found || (found && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RunningBelow agrees with a recount of LiveCopies through
// random sequences of MarkRunning (up to two copies past MaxCopies),
// DropCopy (down to zero copies, which reverts the task), MarkDone and
// MarkPending on two phases of four tasks, for every threshold from 0 to
// MaxCopies. Above MaxCopies it counts every running task.
func TestRunningBelowMatchesRecountProperty(t *testing.T) {
	const tasks = 4
	f := func(ops []uint8) bool {
		j := &Job{ID: 1, Name: "c", App: "t", Phases: []Phase{
			{Name: "a", Tasks: tasks, Demand: resources.Cores(1, 1), MeanDuration: 5},
			{Name: "b", Tasks: tasks, Demand: resources.Cores(1, 1), MeanDuration: 5},
		}}
		s := NewJobState(j)
		for _, op := range ops {
			k, l := PhaseID(op%2), int(op/2)%tasks
			switch (op / (2 * tasks)) % 5 {
			case 0, 1:
				if s.LiveCopies(k, l) < MaxCopies+2 {
					s.MarkRunning(k, l)
				}
			case 2:
				s.DropCopy(k, l)
			case 3:
				if s.Task(k, l) != TaskDone {
					if err := s.MarkDone(k, l); err != nil {
						return false
					}
				}
			case 4:
				s.MarkPending(k, l)
			}
			for k := PhaseID(0); k < 2; k++ {
				for copies := 0; copies <= MaxCopies; copies++ {
					want := 0
					for _, i := range s.RunningTasksView(k) {
						if s.LiveCopies(k, i) < copies {
							want++
						}
					}
					if got := s.RunningBelow(k, copies); got != want {
						t.Logf("phase %d: %d running tasks below %d copies, recount %d", k, got, copies, want)
						return false
					}
				}
				if got, want := s.RunningBelow(k, MaxCopies+1), s.RunningCount(k); got != want {
					t.Logf("phase %d: %d running tasks below %d copies, want all %d", k, got, MaxCopies+1, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
