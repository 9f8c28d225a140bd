// Package schedtest provides a deterministic in-memory sched.Context for
// unit-testing scheduling policies without the full simulator: tests set
// up a fleet and job states, call Schedule, and apply the returned
// placements back onto the fake to emulate the engine's bookkeeping.
package schedtest

import (
	"fmt"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Context is a fake sched.Context. Populate the exported fields, then
// pass it to a scheduler.
type Context struct {
	Clock     int64
	Fleet     *cluster.Cluster
	JobStates []*workload.JobState
	CopyMap   map[workload.TaskRef][]sched.CopyStatus
	CloneUse  resources.Vector
	Allocs    map[workload.JobID]resources.Vector
	// StatsOverride, when set for a phase, replaces the declared
	// (mean, sd) and reports the given sample count — how tests fake
	// "enough completed tasks" for speculation policies.
	StatsOverride map[PhaseKey]PhaseStats
	// SpeedOverride fakes learned per-server speed estimates; servers
	// absent from the map report speed 1 with no samples.
	SpeedOverride map[cluster.ServerID]SpeedEstimate
	// OutputRacks fakes completed-phase output locations for
	// PhaseOutputRack.
	OutputRacks map[PhaseKey]int

	byID map[workload.JobID]*workload.JobState // find's index over JobStates
}

// SpeedEstimate is a learned server-speed override.
type SpeedEstimate struct {
	Speed float64
	N     int
}

// PhaseKey identifies a phase for StatsOverride.
type PhaseKey struct {
	Job   workload.JobID
	Phase workload.PhaseID
}

// PhaseStats is an observed-duration override.
type PhaseStats struct {
	Mean float64
	SD   float64
	N    int
}

var _ sched.Context = (*Context)(nil)

// New builds an empty fake over a fleet.
func New(fleet *cluster.Cluster) *Context {
	return &Context{
		Fleet:         fleet,
		CopyMap:       make(map[workload.TaskRef][]sched.CopyStatus),
		Allocs:        make(map[workload.JobID]resources.Vector),
		StatsOverride: make(map[PhaseKey]PhaseStats),
		SpeedOverride: make(map[cluster.ServerID]SpeedEstimate),
		OutputRacks:   make(map[PhaseKey]int),
	}
}

// AddJob registers a job (validating it) and returns its state.
func (c *Context) AddJob(j *workload.Job) (*workload.JobState, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	js := workload.NewJobState(j)
	c.JobStates = append(c.JobStates, js)
	return js, nil
}

// MustAddJob is AddJob panicking on error.
func (c *Context) MustAddJob(j *workload.Job) *workload.JobState {
	js, err := c.AddJob(j)
	if err != nil {
		panic(err)
	}
	return js
}

// Now implements sched.Context.
func (c *Context) Now() int64 { return c.Clock }

// Cluster implements sched.Context.
func (c *Context) Cluster() *cluster.Cluster { return c.Fleet }

// Jobs implements sched.Context: arrived, unfinished jobs in AddJob
// order. That meets the contract (survivors keep their order, new jobs
// only append) as long as jobs are added in arrival order; advancing
// Clock past the arrival of a job added before later-arriving ones
// already visible would insert it among them.
func (c *Context) Jobs() []*workload.JobState {
	var out []*workload.JobState
	for _, js := range c.JobStates {
		if js.Job.Arrival <= c.Clock && !js.Done() {
			out = append(out, js)
		}
	}
	return out
}

// Copies implements sched.Context.
func (c *Context) Copies(ref workload.TaskRef) []sched.CopyStatus {
	return c.CopyMap[ref]
}

// CloneUsage implements sched.Context.
func (c *Context) CloneUsage() resources.Vector { return c.CloneUse }

// Allocation implements sched.Context.
func (c *Context) Allocation(id workload.JobID) resources.Vector { return c.Allocs[id] }

// PhaseStats implements sched.Context.
func (c *Context) PhaseStats(id workload.JobID, k workload.PhaseID) (float64, float64, int) {
	if st, ok := c.StatsOverride[PhaseKey{id, k}]; ok {
		return st.Mean, st.SD, st.N
	}
	for _, js := range c.JobStates {
		if js.Job.ID == id {
			ph := &js.Job.Phases[k]
			return ph.MeanDuration, ph.SDDuration, 0
		}
	}
	return 0, 0, 0
}

// ObservedServerSpeed implements sched.Context.
func (c *Context) ObservedServerSpeed(id cluster.ServerID) (float64, int) {
	if est, ok := c.SpeedOverride[id]; ok {
		return est.Speed, est.N
	}
	return 1, 0
}

// PhaseOutputRack implements sched.Context.
func (c *Context) PhaseOutputRack(id workload.JobID, k workload.PhaseID) (int, bool) {
	rack, ok := c.OutputRacks[PhaseKey{id, k}]
	return rack, ok
}

// Apply emulates the engine: it validates each placement against the
// fake's state, allocates resources, and updates job/copy bookkeeping.
// It returns an error on the first invalid placement.
func (c *Context) Apply(placements []sched.Placement) error {
	for _, p := range placements {
		js := c.find(p.Ref.Job)
		if js == nil {
			return fmt.Errorf("schedtest: placement for unknown job %d", p.Ref.Job)
		}
		if int(p.Ref.Phase) < 0 || int(p.Ref.Phase) >= len(js.Job.Phases) {
			return fmt.Errorf("schedtest: bad phase in %v", p.Ref)
		}
		ph := &js.Job.Phases[p.Ref.Phase]
		if p.Ref.Index < 0 || p.Ref.Index >= ph.Tasks {
			return fmt.Errorf("schedtest: bad index in %v", p.Ref)
		}
		if js.Task(p.Ref.Phase, p.Ref.Index) == workload.TaskDone {
			return fmt.Errorf("schedtest: placement for done task %v", p.Ref)
		}
		if !js.PhaseReady(p.Ref.Phase) {
			return fmt.Errorf("schedtest: parents unfinished for %v", p.Ref)
		}
		if err := c.Fleet.Allocate(p.Server, ph.Demand); err != nil {
			return fmt.Errorf("schedtest: %w", err)
		}
		clone := len(c.CopyMap[p.Ref]) > 0
		c.CopyMap[p.Ref] = append(c.CopyMap[p.Ref], sched.CopyStatus{
			Server: p.Server, Start: c.Clock, Clone: clone,
		})
		if clone {
			c.CloneUse = c.CloneUse.Add(ph.Demand)
		}
		c.Allocs[p.Ref.Job] = c.Allocs[p.Ref.Job].Add(ph.Demand)
		js.MarkRunning(p.Ref.Phase, p.Ref.Index)
	}
	return nil
}

// Complete finishes a task: releases every copy's resources and marks it
// done, as the engine does when the first copy wins. Like the engine,
// it completes only a task with a running copy; any other is an error,
// as an invalid placement is for Apply.
func (c *Context) Complete(ref workload.TaskRef) error {
	js := c.find(ref.Job)
	if js == nil {
		return fmt.Errorf("schedtest: unknown job %d", ref.Job)
	}
	if len(c.CopyMap[ref]) == 0 {
		return fmt.Errorf("schedtest: completing %v, which has no running copy", ref)
	}
	demand := js.Job.Phases[ref.Phase].Demand
	for _, cp := range c.CopyMap[ref] {
		if err := c.Fleet.Release(cp.Server, demand); err != nil {
			return err
		}
		if cp.Clone {
			c.CloneUse = c.CloneUse.Sub(demand)
		}
		c.Allocs[ref.Job] = c.Allocs[ref.Job].Sub(demand)
	}
	delete(c.CopyMap, ref)
	return js.MarkDone(ref.Phase, ref.Index)
}

// PlacementsFor returns the placements in the batch that target a job.
func PlacementsFor(ps []sched.Placement, id workload.JobID) []sched.Placement {
	var out []sched.Placement
	for _, p := range ps {
		if p.Ref.Job == id {
			out = append(out, p)
		}
	}
	return out
}

// CloneCount returns how many placements in the batch are clones, judged
// against the fake's current copy map (call before Apply).
func (c *Context) CloneCount(ps []sched.Placement) int {
	seen := make(map[workload.TaskRef]int)
	n := 0
	for _, p := range ps {
		if len(c.CopyMap[p.Ref])+seen[p.Ref] > 0 {
			n++
		}
		seen[p.Ref]++
	}
	return n
}

// find looks a job up by ID through an index rebuilt whenever JobStates
// has grown or shrunk, so applying a batch to a deep backlog is not
// quadratic.
func (c *Context) find(id workload.JobID) *workload.JobState {
	if len(c.byID) != len(c.JobStates) {
		c.byID = make(map[workload.JobID]*workload.JobState, len(c.JobStates))
		for _, js := range c.JobStates {
			if _, dup := c.byID[js.Job.ID]; !dup {
				c.byID[js.Job.ID] = js
			}
		}
	}
	return c.byID[id]
}
