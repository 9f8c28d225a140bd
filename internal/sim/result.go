package sim

import (
	"sort"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// JobMetrics records the outcome of one job.
type JobMetrics struct {
	ID         workload.JobID
	Name       string
	App        string
	Arrival    int64
	FirstStart int64
	Finish     int64
	// Flowtime is f_j − a_j (slots), the paper's primary metric.
	Flowtime int64
	// RunningTime is f_j minus the first copy start, the "job execution
	// time" of §6.2.
	RunningTime int64
	// Usage is the job's total resource-time product across all copies,
	// clones included.
	Usage resources.Usage
	// CopiesLaunched counts all copies; TasksCloned counts tasks that
	// received at least one clone; TotalTasks is the job's task count.
	CopiesLaunched int
	TasksCloned    int
	TotalTasks     int
}

// JobDigest aggregates per-job metrics when Config.CompactJobs is set:
// the run-level statistics of §6.2 (flowtime and running-time
// distributions, clone counts) in a few hundred bytes, instead of one
// JobMetrics record per job — the difference between a bounded and a
// multi-gigabyte Result at 25M replayed jobs. Count/sum/min/max/mean
// are exact; distribution quantiles are factor-of-2 log-bucket bounds.
type JobDigest struct {
	// Flowtime aggregates f_j − a_j (slots), the paper's primary metric.
	Flowtime stats.LogHist
	// RunningTime aggregates f_j minus the first copy start.
	RunningTime stats.LogHist
	// CopiesLaunched, TasksCloned and TotalTasks sum the per-job counts.
	CopiesLaunched int64
	TasksCloned    int64
	TotalTasks     int64
}

// observe folds one finished job into the digest.
func (d *JobDigest) observe(m *JobMetrics) {
	d.Flowtime.Observe(m.Flowtime)
	d.RunningTime.Observe(m.RunningTime)
	d.CopiesLaunched += int64(m.CopiesLaunched)
	d.TasksCloned += int64(m.TasksCloned)
	d.TotalTasks += int64(m.TotalTasks)
}

// Result is the outcome of one simulation run.
type Result struct {
	Scheduler string
	// Jobs holds one record per finished job, in completion order, as of
	// the last Finalize (Run and Drain end with one), in a slice exactly
	// as long as it needs to be.
	Jobs []JobMetrics
	// Completed counts finished jobs. It equals len(Jobs) except under
	// Config.CompactJobs, where Jobs stays empty and Digest aggregates.
	Completed int
	// Digest is the aggregated per-job record (Config.CompactJobs only).
	Digest *JobDigest
	// Makespan is the slot at which the last job finished.
	Makespan int64
	// TotalUsage is the cluster-wide resource-time product.
	TotalUsage resources.Usage
	// SchedCalls and SchedWall measure scheduling overhead (§6.3.3).
	SchedCalls int
	SchedWall  time.Duration
	// AvgUtilization is the time-averaged fraction of cluster capacity
	// in use over [0, makespan], averaged across CPU and memory.
	AvgUtilization float64
	// CopiesLostToFailures counts copies killed by injected server
	// failures.
	CopiesLostToFailures int
	// Trace is the event log of the four copy kinds (only with
	// Config.RecordTrace).
	Trace []TraceEvent
}

// TraceKind labels an event the engine reports.
type TraceKind int

// Event kinds. The first four are the copy kinds Result.Trace records; the
// rest reach only Config.Observe.
const (
	// TracePlace is a copy launch.
	TracePlace TraceKind = iota
	// TraceComplete is a task's first copy finishing (the task is done).
	TraceComplete
	// TraceKill is a sibling copy killed after the winner finished.
	TraceKill
	// TraceLost is a copy killed by a server failure.
	TraceLost
	// TraceArrive is a job joining the active set (job in Ref.Job).
	TraceArrive
	// TraceJobStart is a job's first copy being placed, reported just
	// before that copy's TracePlace.
	TraceJobStart
	// TraceJobDone is a job finishing, after its last TraceComplete;
	// Observation.Job holds its metrics, flowtime stamped.
	TraceJobDone
	// TraceAdvance is the clock leaving Slot for a later slot. The engine
	// still holds the state of [Slot, next), so what the observer reads
	// then (Jobs, the copies, Cluster().TotalUsed()) is that interval's.
	TraceAdvance
)

// TraceEvent is one reported event. Server, Demand and Clone describe the
// copy of a copy kind and are zero for the others.
type TraceEvent struct {
	Slot   int64
	Kind   TraceKind
	Ref    workload.TaskRef
	Server cluster.ServerID
	Demand resources.Vector
	// Clone marks copies beyond a task's first.
	Clone bool
}

// Observation is what Config.Observe receives: one event, and for
// TraceJobDone the finished job's metrics (nil otherwise). The engine
// reuses one Observation, so it is valid only during the call.
type Observation struct {
	TraceEvent
	Job *JobMetrics
}

// observe hands the observer one event about copy c (whose ref, server,
// demand and clone flag it reports) or, with c nil, about job id. Callers
// check e.obs first, so a run without an observer pays one branch a site.
func (e *Engine) observe(kind TraceKind, c *taskCopy, id workload.JobID, m *JobMetrics) {
	e.event = Observation{TraceEvent: TraceEvent{Slot: e.clock, Kind: kind, Ref: workload.TaskRef{Job: id}}, Job: m}
	if c != nil {
		e.event.Ref, e.event.Server, e.event.Demand, e.event.Clone = c.ref, c.server, c.demand, c.clone
	}
	e.obs(&e.event)
}

// record is Config.RecordTrace's observer: it appends the copy kinds to
// Result.Trace, then hands every event on to Config.Observe, if set.
func (e *Engine) record(o *Observation) {
	if o.Kind <= TraceLost {
		e.res.Trace = append(e.res.Trace, o.TraceEvent)
	}
	if e.cfg.Observe != nil {
		e.cfg.Observe(o)
	}
}

func (e *Engine) recordJob(js *workload.JobState) {
	m := JobMetrics{
		ID:             js.Job.ID,
		Name:           js.Job.Name,
		App:            js.Job.App,
		Arrival:        js.Job.Arrival,
		FirstStart:     js.FirstStart,
		Finish:         js.Finish,
		Flowtime:       js.Flowtime(),
		RunningTime:    js.RunningTime(),
		Usage:          js.Usage,
		CopiesLaunched: js.CopiesLaunched,
		TasksCloned:    js.TasksCloned,
		TotalTasks:     js.Job.TotalTasks(),
	}
	e.res.Completed++
	if e.cfg.CompactJobs {
		e.res.Digest.observe(&m)
	} else {
		if n := len(e.records); n == 0 || len(e.records[n-1]) == resultBlock {
			e.records = append(e.records, make([]JobMetrics, 0, resultBlock))
		}
		last := &e.records[len(e.records)-1]
		*last = append(*last, m)
	}
	if js.Finish > e.res.Makespan {
		e.res.Makespan = js.Finish
	}
	if e.obs != nil {
		// A copy in the engine, so m itself never escapes.
		e.doneJob = m
		e.observe(TraceJobDone, nil, m.ID, &e.doneJob)
	}
}

// resultBlock is how many JobMetrics one block of recorded results
// holds.
const resultBlock = 1024

// finalizeResult computes the run-level aggregates, and moves the job
// records made since the last call out of their blocks onto the end of
// Result.Jobs, which it replaces by a slice of exactly the new length.
// A record is copied once on its way, where growing Result.Jobs by
// append would copy it at every regrowth.
func (e *Engine) finalizeResult() {
	if len(e.records) > 0 {
		n := len(e.res.Jobs)
		for _, b := range e.records {
			n += len(b)
		}
		all := append(make([]JobMetrics, 0, n), e.res.Jobs...)
		for i, b := range e.records {
			all = append(all, b...)
			e.records[i] = nil
		}
		e.res.Jobs, e.records = all, e.records[:0]
	}
	if e.res.Makespan > 0 {
		total := e.cfg.Cluster.Total()
		cpuFrac := e.utilCPU / (float64(total.CPUMilli) * float64(e.res.Makespan))
		memFrac := e.utilMem / (float64(total.MemMiB) * float64(e.res.Makespan))
		e.res.AvgUtilization = (cpuFrac + memFrac) / 2
	}
}

// Flowtimes returns every job's flowtime as float64s, in completion
// order.
func (r *Result) Flowtimes() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = float64(j.Flowtime)
	}
	return out
}

// RunningTimes returns every job's running time.
func (r *Result) RunningTimes() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = float64(j.RunningTime)
	}
	return out
}

// TotalFlowtime returns Σ (f_j − a_j), the objective of (OPT). Exact in
// both retention modes: the digest keeps the exact flowtime sum.
func (r *Result) TotalFlowtime() int64 {
	if r.Digest != nil {
		return r.Digest.Flowtime.Sum()
	}
	var sum int64
	for _, j := range r.Jobs {
		sum += j.Flowtime
	}
	return sum
}

// MeanFlowtime returns the average job flowtime.
func (r *Result) MeanFlowtime() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.TotalFlowtime()) / float64(r.Completed)
}

// ByJobID returns per-job metrics keyed by job ID, for cross-scheduler
// ratio comparisons (Figs. 8, 11).
func (r *Result) ByJobID() map[workload.JobID]JobMetrics {
	m := make(map[workload.JobID]JobMetrics, len(r.Jobs))
	for _, j := range r.Jobs {
		m[j.ID] = j
	}
	return m
}

// ClonedTaskFraction returns the fraction of all tasks that received at
// least one clone (Fig. 10b). Exact in both retention modes.
func (r *Result) ClonedTaskFraction() float64 {
	var tasks, cloned int64
	if r.Digest != nil {
		tasks, cloned = r.Digest.TotalTasks, r.Digest.TasksCloned
	} else {
		for _, j := range r.Jobs {
			tasks += int64(j.TotalTasks)
			cloned += int64(j.TasksCloned)
		}
	}
	if tasks == 0 {
		return 0
	}
	return float64(cloned) / float64(tasks)
}

// FlowtimeECDF returns the empirical flowtime distribution.
func (r *Result) FlowtimeECDF() *stats.ECDF { return stats.NewECDF(r.Flowtimes()) }

// RunningTimeECDF returns the empirical running-time distribution.
func (r *Result) RunningTimeECDF() *stats.ECDF { return stats.NewECDF(r.RunningTimes()) }

// CumulativeFlowtime returns, for jobs sorted by arrival, the running sum
// of flowtime — the series of Fig. 7.
func (r *Result) CumulativeFlowtime() []stats.Point {
	jobs := make([]JobMetrics, len(r.Jobs))
	copy(jobs, r.Jobs)
	// Jobs complete out of arrival order; Fig. 7 accumulates by arrival.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	pts := make([]stats.Point, len(jobs))
	var sum int64
	for i, j := range jobs {
		sum += j.Flowtime
		pts[i] = stats.Point{X: float64(j.Arrival), Y: float64(sum)}
	}
	return pts
}
