package sched

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// CopyRules is a policy's redundancy rule: which running tasks may get
// one more copy in a Schedule call.
type CopyRules struct {
	// Copies caps a task's live copies, the original included.
	Copies int
	// Delta, when positive, is the δ budget: clone copies hold at most
	// CloneBudget(total, Delta), counting Context.CloneUsage.
	Delta float64
	// Drained skips jobs that still have a pending task in a ready
	// phase (§4.1/§5: unplaced work goes first).
	Drained bool
	// Due, when set, is a further trigger a task must meet.
	Due func(workload.TaskRef) bool
}

// CloneBudget is the δ budget: the share delta of each resource of the
// cluster total.
func CloneBudget(total resources.Vector, delta float64) resources.Vector {
	return resources.Vec(int64(delta*float64(total.CPUMilli)), int64(delta*float64(total.MemMiB)))
}

// GrantCopies is the copy-granting walk. Pass p, for p = 1 ..
// rules.Copies-1, tops up each running task that holds exactly p live
// copies, counting this call's grants, in the order of jobs, then their
// ready phases, then the phases' running tasks. A task gets a copy when
// Due holds, the budget has room for its demand and bind picks a server;
// the copy is placed on ft and appended to out, which is returned.
func GrantCopies(ctx Context, ft *FitTracker, jobs []*workload.JobState, rules CopyRules,
	bind func(*workload.JobState, workload.TaskRef, resources.Vector) (cluster.ServerID, bool), out []Placement) []Placement {
	budget, use := CloneBudget(ctx.Cluster().Total(), rules.Delta), ctx.CloneUsage()
	granted := make(map[workload.TaskRef]int) // not yet in the job states
	for pass := 1; pass < rules.Copies; pass++ {
		for _, js := range jobs {
			if rules.Drained {
				if _, pending := FirstReadyPendingTask(js); pending {
					continue
				}
			}
			for _, k := range js.ReadyPhases() {
				demand := js.Job.Phases[k].Demand
				for _, l := range js.RunningTasksView(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
					if js.LiveCopies(k, l)+granted[ref] != pass || rules.Due != nil && !rules.Due(ref) {
						continue
					}
					next := use.Add(demand)
					if rules.Delta > 0 && !next.Fits(budget) {
						continue
					}
					srv, ok := bind(js, ref, demand)
					if !ok {
						continue
					}
					ft.Place(srv, demand)
					use = next
					granted[ref]++
					out = append(out, Placement{Ref: ref, Server: srv})
				}
			}
		}
	}
	return out
}

// Straggling is LATE's trigger (Zaharia et al., OSDI '08): ref's phase
// has at least minSamples completed tasks with a mean duration above 0,
// ref has a single running copy, and that copy has run longer than
// threshold × the mean.
func Straggling(ctx Context, ref workload.TaskRef, threshold float64, minSamples int) bool {
	mean, _, n := ctx.PhaseStats(ref.Job, ref.Phase)
	if n < minSamples || mean <= 0 {
		return false
	}
	copies := ctx.Copies(ref)
	return len(copies) == 1 && float64(ctx.Now()-copies[0].Start) > threshold*mean
}
