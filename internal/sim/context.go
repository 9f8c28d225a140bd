package sim

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// The Engine itself implements sched.Context; schedulers receive it at
// every decision point.
var _ sched.Context = (*Engine)(nil)

// Now returns the current slot.
func (e *Engine) Now() int64 { return e.clock }

// Cluster returns the fleet (read-only for schedulers).
func (e *Engine) Cluster() *cluster.Cluster { return e.cfg.Cluster }

// Jobs returns arrived, unfinished jobs in delivery order: arrivals are
// only ever appended (processArrivals) and finished jobs cut out in
// place (compactActive), which is the sched.Context contract. Delivery
// order is (arrival, ID) order except for an online InjectJob of a
// smaller ID into a slot whose arrivals were already delivered.
func (e *Engine) Jobs() []*workload.JobState { return e.active }

// Copies returns the running copies of a task, original first.
func (e *Engine) Copies(ref workload.TaskRef) []sched.CopyStatus {
	lj := e.live(ref.Job, ref.Phase)
	if lj == nil || lj.copies == nil || ref.Index < 0 || ref.Index >= len(lj.copies[ref.Phase]) {
		return nil
	}
	c := lj.copies[ref.Phase][ref.Index]
	if c == nil {
		return nil
	}
	out := make([]sched.CopyStatus, 0, lj.LiveCopies(ref.Phase, ref.Index))
	for ; c != nil; c = c.next {
		out = append(out, sched.CopyStatus{Server: c.server, Start: c.start, Clone: c.clone})
	}
	return out
}

// CloneUsage returns resources currently held by clone copies.
func (e *Engine) CloneUsage() resources.Vector { return e.cloneUse }

// Allocation returns the resources currently held by a job's running
// copies: zero for a job that holds none, is unknown, or has finished.
// Maintained incrementally, so DRF-style schedulers stay O(jobs) per
// decision.
func (e *Engine) Allocation(id workload.JobID) resources.Vector {
	if lj := e.states[id]; lj != nil {
		return lj.alloc
	}
	return resources.Vector{}
}

// speedEstimate is an EWMA over speed samples; the zero value estimates
// speed 1 with no samples.
type speedEstimate struct {
	value float64
	n     int
}

// ewmaAlpha weighs new speed observations; small enough to smooth the
// Pareto noise, large enough to track background-load shifts.
const ewmaAlpha = 0.2

func (s *speedEstimate) observe(sample float64) {
	if s.n == 0 {
		s.value = sample
	} else {
		s.value = (1-ewmaAlpha)*s.value + ewmaAlpha*sample
	}
	s.n++
}

// ObservedServerSpeed implements sched.Context.
func (e *Engine) ObservedServerSpeed(id cluster.ServerID) (float64, int) {
	est := e.speedEst[id]
	if est.n == 0 {
		return 1, 0
	}
	return est.value, est.n
}

// live returns the record of a job that is live and has a phase k, or
// nil: the job is unknown, released, or has no such phase.
func (e *Engine) live(id workload.JobID, k workload.PhaseID) *liveJob {
	lj := e.states[id]
	if lj == nil || int(k) < 0 || int(k) >= len(lj.Job.Phases) {
		return nil
	}
	return lj
}

// PhaseOutputRack implements sched.Context: the majority rack of the
// phase's winning copies so far, the lowest rack on a tie.
func (e *Engine) PhaseOutputRack(id workload.JobID, k workload.PhaseID) (int, bool) {
	lj := e.live(id, k)
	if lj == nil || lj.phases == nil {
		return 0, false // nothing placed, so nothing won
	}
	return lj.majorityRack(k)
}

// PhaseStats returns the observed completed-task duration statistics for
// a phase. With no observations yet it falls back to the declared model
// (mean, sd) with n = 0, matching the paper's AM behavior of seeding
// estimates from prior runs. Statistics live as long as the job does:
// once the job completes, its record is released (releaseJob) and
// queries return zeros.
func (e *Engine) PhaseStats(id workload.JobID, k workload.PhaseID) (mean, sd float64, n int) {
	lj := e.live(id, k)
	if lj == nil {
		return 0, 0, 0
	}
	if lj.phases != nil {
		if obs := &lj.phases[k].observed; obs.N() > 0 {
			return obs.Mean(), obs.SD(), obs.N()
		}
	}
	ph := &lj.Job.Phases[k]
	return ph.MeanDuration, ph.SDDuration, 0
}
