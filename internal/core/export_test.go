package core

import (
	"fmt"
	"testing"

	"dollymp/internal/estimate"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// EstimatorOf exposes the scheduler's estimator to black-box tests that
// pin the exactly-once Record folding contract.
func EstimatorOf(s *Scheduler) *estimate.Estimator { return s.estimator }

// FitStatsOf exposes the work counts of the scheduler's fit index to
// black-box tests; zero before the first Schedule call.
func FitStatsOf(s *Scheduler) sched.FitStats {
	if s.scratch.ft == nil {
		return sched.FitStats{}
	}
	return sched.FitStatsOf(s.scratch.ft)
}

// WatchChecked wraps s for black-box tests of the watch list. Every
// Schedule call first runs the sync the call itself will run — the
// watch pass alone when no job arrived — and then checks every live
// record against what a full walk of ctx.Jobs() would leave: paired with
// its job in order, its stamp the job's, its head the one a fresh cursor
// finds, its class assigned, its head-index slot holding that head, and
// its place on the watch list matching whether the job holds a running
// copy. A mismatch fails tb, naming the job and the call. The sync the
// call then runs again finds nothing left to do.
func WatchChecked(tb testing.TB, s *Scheduler) sched.Scheduler {
	return &watchChecked{Scheduler: s, tb: tb}
}

type watchChecked struct {
	*Scheduler
	tb    testing.TB
	calls int
}

func (w *watchChecked) Schedule(ctx sched.Context) []sched.Placement {
	w.calls++
	s := w.Scheduler
	jobs := ctx.Jobs()
	s.scratch.sync(jobs, s.pendingArrivals > 0)
	if err := s.scratch.checkMirror(jobs); err != nil {
		w.tb.Fatalf("Schedule call %d (slot %d): %v", w.calls, ctx.Now(), err)
	}
	return s.Schedule(ctx)
}

// checkMirror reports the first record that differs from what a full
// walk of jobs would leave.
func (sc *scratch) checkMirror(jobs []*workload.JobState) error {
	onList := map[*jobRec]bool{}
	for l := range sc.classes {
		for i, r := range sc.classes[l].watch {
			if r.class != int32(l) || r.gone || !r.watched || onList[r] || i > 0 && sc.classes[l].watch[i-1].seq >= r.seq {
				return fmt.Errorf("class %d's watch list holds job %d out of place", l, r.cur.JS.Job.ID)
			}
			onList[r] = true
		}
	}
	i := 0
	for _, r := range sc.recs {
		if r.gone {
			continue
		}
		if i == len(jobs) || r.cur.JS != jobs[i] {
			return fmt.Errorf("the record at job position %d is job %d's, not the listed job's", i, r.cur.JS.Job.ID)
		}
		js := jobs[i]
		i++
		id := js.Job.ID
		if r.seen != js.Version() {
			return fmt.Errorf("job %d: record stamp %d, job stamp %d", id, r.seen, js.Version())
		}
		var fresh sched.JobCursor
		fresh.Reset(js)
		want, wok := fresh.Peek()
		got, gok := r.cur.Peek()
		if wok != gok || want != got {
			return fmt.Errorf("job %d: record head %+v (%v), job head %+v (%v)", id, got, gok, want, wok)
		}
		if running := holdsCopy(js); r.watched != running || onList[r] != (running && r.class != 0) {
			return fmt.Errorf("job %d: watched %v, on its class's list %v, holds a running copy %v", id, r.watched, onList[r], running)
		}
		if sc.fresh {
			continue // no class yet; the recompute the call runs next regroups
		}
		if r.class < 1 || int(r.class) > sc.maxClass {
			return fmt.Errorf("job %d: class %d outside 1..%d", id, r.class, sc.maxClass)
		}
		idx := &sc.classes[r.class].heads
		var e headEnt
		switch w := int(r.where); {
		case w > 0:
			e = idx.ents[w-1]
		case w < 0:
			e = idx.over[-w-1]
		}
		if r.where != 0 != gok || gok && (e.rec != r || e.demand != got.Demand) {
			return fmt.Errorf("job %d: head-index slot %d holds %+v for head %+v (%v)", id, r.where, e, got, gok)
		}
	}
	if i != len(jobs) {
		return fmt.Errorf("%d records for %d jobs", i, len(jobs))
	}
	return nil
}

// holdsCopy reports whether a job has a running task.
func holdsCopy(js *workload.JobState) bool {
	for k := range js.Job.Phases {
		if js.RunningCount(workload.PhaseID(k)) > 0 {
			return true
		}
	}
	return false
}

// DepartedOf reports how many of the scheduler's records belong to jobs
// that left ctx.Jobs() and wait for the next full walk to recycle them,
// and how many of those still hold a job.
func DepartedOf(s *Scheduler) (departed, holding int) {
	for _, r := range s.scratch.departed {
		if r.cur.JS != nil {
			holding++
		}
	}
	return len(s.scratch.departed), holding
}
