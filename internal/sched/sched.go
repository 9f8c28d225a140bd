// Package sched defines the interface between the cluster simulator and
// the scheduling policies (DollyMP and the baselines), mirroring the
// decision points Hadoop YARN's Resource Manager exposes: the scheduler
// observes arrived jobs, task states, per-server free capacity, and the
// running copies of each task, and returns container placements.
package sched

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// CopyStatus describes one running copy of a task.
type CopyStatus struct {
	Server cluster.ServerID
	Start  int64
	// Clone is true for every copy after the first.
	Clone bool
}

// Context is the scheduler's read-only view of the simulation at a
// decision point. Implemented by the simulator.
type Context interface {
	// Now returns the current slot.
	Now() int64
	// Cluster returns the fleet; schedulers must treat it as read-only
	// (the engine applies placements).
	Cluster() *cluster.Cluster
	// Jobs returns the arrived, unfinished jobs in the order they were
	// delivered. The contract between one decision point and the next is
	// about change, not about keys: a snapshot is the previous one with
	// the finished jobs taken out and the new arrivals appended — the
	// survivors keep their relative order and nothing is ever inserted
	// among them. (Arrival slots therefore never decrease along the
	// list; job IDs within a slot usually ascend, but an online
	// injection into a slot already delivered lands behind it.) A
	// scheduler may keep per-job state aligned with the list on the
	// strength of this; the slice itself is only valid for the call.
	Jobs() []*workload.JobState
	// Copies returns the running copies of a task (empty if none). A
	// policy that needs only their number reads it off the job instead:
	// JobState.LiveCopies.
	Copies(ref workload.TaskRef) []CopyStatus
	// CloneUsage returns the resources currently held by clone copies,
	// the quantity DollyMP's cloning budget (δ) constrains.
	CloneUsage() resources.Vector
	// Allocation returns the resources currently held by all running
	// copies of a job, the input to DRF-style dominant-share policies.
	Allocation(id workload.JobID) resources.Vector
	// PhaseStats returns the observed duration statistics of completed
	// tasks in a phase — what the paper's Application Master estimates
	// from "the first few tasks". n is the sample count.
	PhaseStats(id workload.JobID, k workload.PhaseID) (mean, sd float64, n int)
	// ObservedServerSpeed returns an online estimate of a server's
	// speed learned from completed copies (declared phase mean divided
	// by observed duration, exponentially averaged) and the sample
	// count. With no samples the estimate is 1. This is the signal the
	// paper's future work proposes for identifying straggler-prone
	// servers.
	ObservedServerSpeed(id cluster.ServerID) (speed float64, n int)
	// PhaseOutputRack returns the rack holding the majority of a
	// completed phase's outputs, or ok=false before anything finished.
	// Application Masters use it for the data-locality binding of §5.2.
	PhaseOutputRack(id workload.JobID, k workload.PhaseID) (rack int, ok bool)
}

// Placement asks the engine to launch one copy of a task on a server.
// A placement for a task that already has a running copy launches a
// clone/backup copy.
type Placement struct {
	Ref    workload.TaskRef
	Server cluster.ServerID
}

// Scheduler is a cluster scheduling policy. Schedule is called at every
// decision point (job arrival or task completion) and may be called
// repeatedly until it returns no placements; it must only return
// placements that fit current free capacity as it sees it. The returned
// slice belongs to the scheduler and is only valid until its next
// Schedule call (DollyMP reuses one buffer); a caller that keeps
// placements copies them.
type Scheduler interface {
	Name() string
	Schedule(ctx Context) []Placement
}

// ArrivalAware is implemented by schedulers that recompute state only
// when a new job arrives (DollyMP recomputes its knapsack priorities
// there, per §5: "the scheduling order of all jobs won't be updated
// until the next job arrival").
type ArrivalAware interface {
	OnJobArrival(ctx Context, js *workload.JobState)
}
