package sched

import (
	"sort"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// The walks the baselines share. Each policy states its own rule — the
// job order it walks in, the server it picks for a task, the share it
// grants up to — and leaves the mechanics to these.

// PlaceJob is the greedy walk: it places cur's schedulable tasks in
// order, each on the server fit picks for it, consuming ft, and stops at
// the first task fit finds no server for. It returns out with the
// placements appended.
func PlaceJob(ft *FitTracker, cur *JobCursor, fit func(PendingTask) (cluster.ServerID, bool), out []Placement) []Placement {
	for {
		pt, ok := cur.Peek()
		if !ok {
			return out
		}
		id, ok := fit(pt)
		if !ok {
			return out
		}
		ft.Place(id, pt.Demand)
		out = append(out, Placement{Ref: pt.Ref, Server: id})
		cur.Advance()
	}
}

// OrderBy returns the jobs sorted by ascending key, ties broken by
// ascending job ID, reading each job's key once. The sort is stable and
// compares keys with != and <, so jobs whose keys are NaN keep their
// relative order. jobs itself is not reordered.
func OrderBy(jobs []*workload.JobState, key func(*workload.JobState) float64) []*workload.JobState {
	type keyed struct {
		js  *workload.JobState
		key float64
	}
	ks := make([]keyed, len(jobs))
	for i, js := range jobs {
		ks[i] = keyed{js, key(js)}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].js.Job.ID < ks[j].js.Job.ID
	})
	out := make([]*workload.JobState, len(ks))
	for i, k := range ks {
		out[i] = k.js
	}
	return out
}

// GrantByShare is the dominant-share grant loop of DRF (Ghodsi et al.,
// NSDI '11): it repeatedly grants the next task of the active job with
// the lowest dominant share — the engine's allocation plus this loop's
// grants, ties to the lower ID — on its best-fit server, until every job
// is exhausted, blocked, or at or above ceiling (+Inf for none). A job
// whose next task fits nowhere is blocked: all tasks of a phase share a
// demand, and later phases are not ready. It returns the grants, each
// job's cursor past its granted tasks, and the blocked jobs.
func GrantByShare(ctx Context, ft *FitTracker, ceiling float64) ([]Placement, map[workload.JobID]*JobCursor, map[workload.JobID]bool) {
	jobs := ctx.Jobs()
	total := ctx.Cluster().Total()
	alloc := make(map[workload.JobID]resources.Vector, len(jobs))
	cursors := make(map[workload.JobID]*JobCursor, len(jobs))
	blocked := make(map[workload.JobID]bool, len(jobs))
	for _, js := range jobs {
		alloc[js.Job.ID] = ctx.Allocation(js.Job.ID)
		cursors[js.Job.ID] = NewJobCursor(js)
	}
	var out []Placement
	for {
		var best *workload.JobState
		bestShare := 0.0
		for _, js := range jobs {
			id := js.Job.ID
			if blocked[id] || cursors[id].Exhausted() {
				continue
			}
			share := alloc[id].DominantShare(total)
			if share >= ceiling {
				continue
			}
			if best == nil || share < bestShare || (share == bestShare && id < best.Job.ID) {
				best, bestShare = js, share
			}
		}
		if best == nil {
			return out, cursors, blocked
		}
		id := best.Job.ID
		pt, _ := cursors[id].Peek()
		srv, ok := ft.BestFit(pt.Demand)
		if !ok {
			blocked[id] = true
			continue
		}
		ft.Place(srv, pt.Demand)
		cursors[id].Advance()
		alloc[id] = alloc[id].Add(pt.Demand)
		out = append(out, Placement{Ref: pt.Ref, Server: srv})
	}
}
