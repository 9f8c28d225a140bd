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
	// Due, when set, is a further trigger a task must meet.
	Due func(workload.TaskRef) bool
}

// CloneBudget is the δ budget: the share delta of each resource of the
// cluster total.
func CloneBudget(total resources.Vector, delta float64) resources.Vector {
	return resources.Vec(int64(delta*float64(total.CPUMilli)), int64(delta*float64(total.MemMiB)))
}

// CopyWalk is the copy-granting walk, with the phase list it reuses
// between calls. The zero value is ready to use.
type CopyWalk struct {
	// Scanned counts the running tasks the walk has read: one per running
	// task of a phase a pass scanned.
	Scanned uint64
	phases  []copyPhase
}

// copyPhase is a ready phase with a running task under the copy cap, and
// the range out[from:to] of the grants the last pass made in it.
type copyPhase struct {
	js       *workload.JobState
	k        workload.PhaseID
	demand   resources.Vector
	from, to int
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
// At pass p a task holds p copies exactly when the job state gives it p
// or pass p-1 granted it one: a pass grants a task at most once, a grant
// at pass q leaves it at q+1, and a task a pass does not grant keeps its
// count. So Grant lists the phases once, and pass p scans a phase only
// when the job state counts a task at p copies there (RunningBelow) or
// pass p-1 granted in it. It reads those grants off out, where pass p-1
// appended them together and in running order. The budget only tightens
// within a call, so a pass skips a phase whose demand it no longer fits.
func (w *CopyWalk) Grant(ctx Context, ft *FitTracker, jobs []*JobCursor, rules CopyRules,
	bind func(*workload.JobState, workload.TaskRef, resources.Vector) (cluster.ServerID, bool), out []Placement) []Placement {
	if rules.Copies < 2 {
		return out
	}
	budget, use := CloneBudget(ctx.Cluster().Total(), rules.Delta), ctx.CloneUsage()
	room := func(demand resources.Vector) bool { return rules.Delta <= 0 || use.Add(demand).Fits(budget) }

	phases := w.phases[:0]
	for _, cur := range jobs {
		for _, k := range cur.Phases() {
			if cur.JS.RunningBelow(k, rules.Copies) > 0 {
				phases = append(phases, copyPhase{js: cur.JS, k: k, demand: cur.JS.Job.Phases[k].Demand})
			}
		}
	}
	for pass := 1; pass < rules.Copies; pass++ {
		for i := range phases {
			ph := &phases[i]
			js, k := ph.js, ph.k
			last := out[ph.from:ph.to]
			ph.from = len(out)
			ph.to = ph.from
			if !room(ph.demand) || len(last) == 0 && js.RunningBelow(k, pass+1) == js.RunningBelow(k, pass) {
				continue
			}
			for _, l := range js.RunningTasksView(k) {
				w.Scanned++
				copies := js.LiveCopies(k, l)
				if len(last) > 0 && last[0].Ref.Index == l {
					copies, last = pass, last[1:]
				}
				if copies != pass {
					continue
				}
				ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
				if rules.Due != nil && !rules.Due(ref) || !room(ph.demand) {
					continue
				}
				var srv cluster.ServerID
				var ok bool
				if bind == nil {
					srv, ok = ft.BestFit(ph.demand)
				} else {
					srv, ok = bind(js, ref, ph.demand)
				}
				if !ok {
					continue
				}
				ft.Place(srv, ph.demand)
				use = use.Add(ph.demand)
				out = append(out, Placement{Ref: ref, Server: srv})
			}
			ph.to = len(out)
		}
	}
	clear(phases)
	w.phases = phases[:0]
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
