package sim

// The tests that certify runs with verify.Stream are in package sim_test,
// since verify imports sim. They reach the engine's unexported state only
// through this file, which also holds the test schedulers and jobs both
// test packages use.

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// SetTrackedAllocation overwrites the allocation the engine tracks for a
// live job, so a test can plant drift. It reports whether the job is
// live.
func (e *Engine) SetTrackedAllocation(id workload.JobID, v resources.Vector) bool {
	lj := e.states[id]
	if lj != nil {
		lj.alloc = v
	}
	return lj != nil
}

// ApplyPlacement validates and launches one copy, as if a scheduler had
// asked for it.
func (e *Engine) ApplyPlacement(p sched.Placement) error { return e.applyPlacement(p) }

// IDSet is the paged bitmap of completed job IDs.
type IDSet = idSet

// Trace returns the events recorded so far (Config.RecordTrace).
func (e *Engine) Trace() []TraceEvent { return e.res.Trace }

// LiveJob is the engine's record of one arrived, unfinished job.
type LiveJob = liveJob

// Record returns job id's record, nil while the job waits to arrive or
// once it is released, and whether the engine has the job registered.
func (e *Engine) Record(id workload.JobID) (*LiveJob, bool) {
	lj, ok := e.states[id]
	return lj, ok
}

// Records returns how many jobs the engine has registered.
func (e *Engine) Records() int { return len(e.states) }

// Opened reports whether the record's phase records are allocated.
func (lj *liveJob) Opened() bool { return lj.phases != nil }

// CopiesPerTask returns phase k's summary of the copies each completed
// task ran.
func (lj *liveJob) CopiesPerTask(k int) *stats.Summary { return &lj.phases[k].copies }

// Lookahead is how many injected jobs Drain keeps ahead of the clock.
const Lookahead = lookahead

// SetCloneUsage overwrites the clone use the engine tracks, so a test
// can plant drift.
func (e *Engine) SetCloneUsage(v resources.Vector) { e.cloneUse = v }

// LinkKilledCopy links a killed copy of task ref on server id into the
// task's copy list, where a completion that kills a sibling but leaves
// it linked would leave it. It reports whether the job is live.
func (e *Engine) LinkKilledCopy(ref workload.TaskRef, id cluster.ServerID) bool {
	lj := e.states[ref.Job]
	if lj != nil {
		lj.phases[ref.Phase].heads[ref.Index] = &taskCopy{ref: ref, server: id, start: e.clock, killed: true}
	}
	return lj != nil
}

// Greedy is a FIFO first-fit test scheduler with no cloning.
type Greedy struct{}

func (Greedy) Name() string { return "greedy" }

func (Greedy) Schedule(ctx sched.Context) []sched.Placement {
	var out []sched.Placement
	ft := sched.NewFitTracker(ctx.Cluster())
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			for _, s := range ctx.Cluster().Servers() {
				if ft.Place(s.ID, pt.Demand) {
					out = append(out, sched.Placement{Ref: pt.Ref, Server: s.ID})
					break
				}
			}
		}
	}
	return out
}

// Cloner places every pending task and immediately adds one clone when
// capacity allows.
type Cloner struct{}

func (Cloner) Name() string { return "cloner" }

func (Cloner) Schedule(ctx sched.Context) []sched.Placement {
	var out []sched.Placement
	ft := sched.NewFitTracker(ctx.Cluster())
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			placed := 0
			for _, s := range ctx.Cluster().Servers() {
				for placed < 2 && ft.Place(s.ID, pt.Demand) {
					out = append(out, sched.Placement{Ref: pt.Ref, Server: s.ID})
					placed++
				}
			}
		}
	}
	return out
}

// SingleTaskJob is a one-task job demanding one core and 1 GiB.
func SingleTaskJob(id workload.JobID, arrival int64, mean float64) *workload.Job {
	return workload.SingleTask(id, arrival, resources.Cores(1, 1), mean, 0)
}
