package sched

import (
	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// MaxCopies caps a task's live copies, the original included: DollyMP's
// two-clone rule plus the DollyMP³ ablation. The engine refuses a
// placement past it, and no policy may be configured to ask for more.
const MaxCopies = 4

// CopyRules is a policy's redundancy rule: which running tasks may get
// one more copy in a Schedule call.
type CopyRules struct {
	// Copies caps a task's live copies, the original included.
	Copies int
	// Delta, when positive, is the δ budget: clone copies hold at most
	// CloneBudget(total, Delta), counting Context.CloneUsage.
	Delta float64
	// Due, when set, is a further trigger a task must meet.
	Due func(workload.TaskRef) bool
}

// CloneBudget is the δ budget: the share delta of each resource of the
// cluster total.
func CloneBudget(total resources.Vector, delta float64) resources.Vector {
	return resources.Vec(int64(delta*float64(total.CPUMilli)), int64(delta*float64(total.MemMiB)))
}

// CopyWalk is the copy-granting walk, with the work list it reuses
// between calls. The zero value is ready to use.
type CopyWalk struct {
	// Scanned counts the running tasks the walk has read: one per task
	// of a phase its first pass served, and one per work-list entry each
	// later pass swept.
	Scanned uint64
	cands   []copyCand
}

// copyCand is a running task a later pass may still top up, with the
// copy count it will have once this call's grants are applied.
type copyCand struct {
	js     *workload.JobState
	ref    workload.TaskRef
	demand resources.Vector
	copies int
}

// Grant tops up the running tasks of the ready phases of the jobs, as
// their cursors list the phases, in the order of jobs, then phases, then
// running tasks; the caller chooses which jobs a policy serves. Pass p,
// for p = 1 .. rules.Copies-1, gives one more copy to each task holding
// exactly p, counting this call's grants. A task gets a copy when Due
// holds, the budget has room for its demand and bind (ft.BestFit when
// nil) picks a server; the copy is placed on ft and appended to out,
// which is returned.
//
// A task that pass p turns down holds p copies for the rest of the
// call, so only pass 1 walks the jobs. It grants the tasks holding one
// copy and keeps, in walk order, the ones a later pass can still serve:
// those it just topped up and those already holding more than one copy.
// Passes 2.. sweep that list. The budget only tightens within a call, so
// pass 1 skips a phase whose demand it no longer fits.
func (w *CopyWalk) Grant(ctx Context, ft *FitTracker, jobs []*JobCursor, rules CopyRules,
	bind func(*workload.JobState, workload.TaskRef, resources.Vector) (cluster.ServerID, bool), out []Placement) []Placement {
	if rules.Copies < 2 {
		return out
	}
	budget, use := CloneBudget(ctx.Cluster().Total(), rules.Delta), ctx.CloneUsage()
	room := func(demand resources.Vector) bool { return rules.Delta <= 0 || use.Add(demand).Fits(budget) }
	grant := func(js *workload.JobState, ref workload.TaskRef, demand resources.Vector) bool {
		if rules.Due != nil && !rules.Due(ref) || !room(demand) {
			return false
		}
		var srv cluster.ServerID
		var ok bool
		if bind == nil {
			srv, ok = ft.BestFit(demand)
		} else {
			srv, ok = bind(js, ref, demand)
		}
		if !ok {
			return false
		}
		ft.Place(srv, demand)
		use = use.Add(demand)
		out = append(out, Placement{Ref: ref, Server: srv})
		return true
	}

	cands := w.cands[:0]
	for _, cur := range jobs {
		js := cur.JS
		for _, k := range cur.Phases() {
			demand := js.Job.Phases[k].Demand
			if !room(demand) {
				continue
			}
			for _, l := range js.RunningTasksView(k) {
				w.Scanned++
				copies := js.LiveCopies(k, l)
				if copies >= rules.Copies {
					continue
				}
				ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
				if copies == 1 {
					if !grant(js, ref, demand) {
						continue
					}
					copies++
				}
				if copies < rules.Copies {
					cands = append(cands, copyCand{js: js, ref: ref, demand: demand, copies: copies})
				}
			}
		}
	}
	for pass := 2; pass < rules.Copies; pass++ {
		w.Scanned += uint64(len(cands))
		for i := range cands {
			if c := &cands[i]; c.copies == pass && grant(c.js, c.ref, c.demand) {
				c.copies++
			}
		}
	}
	clear(cands)
	w.cands = cands[:0]
	return out
}

// Cursors returns a fresh cursor on each of the jobs, in order.
func Cursors(jobs []*workload.JobState) []*JobCursor {
	out := make([]*JobCursor, len(jobs))
	for i, js := range jobs {
		out[i] = NewJobCursor(js)
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
