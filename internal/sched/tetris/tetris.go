// Package tetris implements the Tetris scheduler (Grandl et al.,
// SIGCOMM '14) as the paper describes it in §2/§6.1: each candidate
// (task, server) pair is scored by a + ε·p, where a is the alignment
// score — the inner product between the task's demand and the server's
// remaining capacity — and p is the task's resource usage, the product of
// its processing time and resource demand. The highest-scoring pair is
// placed first. An optional best-effort cloning mode reproduces the
// "Tetris with cloning" scheme of Fig. 2.
package tetris

import (
	"dollymp/internal/cluster"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the Tetris policy.
type Scheduler struct {
	// Epsilon weighs the resource-usage term against alignment.
	// Default 0.1.
	Epsilon float64
	// R is the variance factor in the effective duration used for p.
	R float64
	// MaxClones, when positive, launches up to this many best-effort
	// clones per running task once no new task fits (Fig. 2's
	// "Tetris with cloning"). Tetris proper does not clone.
	MaxClones int
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "tetris" }

func (s *Scheduler) epsilon() float64 {
	if s.Epsilon <= 0 {
		return 0.1
	}
	return s.Epsilon
}

// Schedule greedily places the highest-score (task, server) pair until
// nothing fits, then optionally clones.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	total := ctx.Cluster().Total()
	ft := sched.NewFitTracker(ctx.Cluster())
	eps := s.epsilon()

	// Candidate tasks: one lazy cursor per (job, phase); all tasks of a
	// phase are interchangeable, so scoring one per phase suffices.
	type candidate struct {
		js   *workload.JobState
		ref  workload.TaskRef
		next int // scan position for the following pending index
		p    float64
	}
	var cands []*candidate
	for _, js := range ctx.Jobs() {
		for _, k := range js.ReadyPhases() {
			idx, ok := js.NextPending(k, 0)
			if !ok {
				continue
			}
			ph := &js.Job.Phases[k]
			p := ph.EffectiveDuration(s.R) * ph.DominantShare(total)
			cands = append(cands, &candidate{
				js:   js,
				ref:  workload.TaskRef{Job: js.Job.ID, Phase: k, Index: idx},
				next: idx + 1,
				p:    p,
			})
		}
	}

	var out []sched.Placement
	for len(cands) > 0 {
		bestIdx := -1
		var bestSrv int
		bestScore := -1.0
		for i, c := range cands {
			demand := c.js.Job.Phases[c.ref.Phase].Demand
			for _, srv := range ctx.Cluster().Servers() {
				free := ft.Free(srv.ID)
				if !demand.Fits(free) {
					continue
				}
				score := demand.Dot(free, total) + eps*c.p
				if score > bestScore {
					bestScore = score
					bestIdx = i
					bestSrv = int(srv.ID)
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		c := cands[bestIdx]
		demand := c.js.Job.Phases[c.ref.Phase].Demand
		ft.Place(cluster.ServerID(bestSrv), demand)
		out = append(out, sched.Placement{Ref: c.ref, Server: cluster.ServerID(bestSrv)})
		if idx, ok := c.js.NextPending(c.ref.Phase, c.next); ok {
			c.ref.Index = idx
			c.next = idx + 1
		} else {
			cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
		}
	}

	if s.MaxClones > 0 {
		out = append(out, s.clonePass(ctx, ft)...)
	}
	return out
}

// clonePass launches best-effort clones for running tasks, highest
// alignment first, up to MaxClones extra copies each.
func (s *Scheduler) clonePass(ctx sched.Context, ft *sched.FitTracker) []sched.Placement {
	var out []sched.Placement
	// added tallies the clones granted in this call, which the job
	// states do not show until the engine applies them.
	added := make(map[workload.TaskRef]int)
	for pass := 0; pass < s.MaxClones; pass++ {
		for _, js := range ctx.Jobs() {
			for _, k := range js.ReadyPhases() {
				demand := js.Job.Phases[k].Demand
				for _, l := range js.RunningTasks(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
					copies := js.LiveCopies(k, l) + added[ref]
					if copies > pass+1 || copies > s.MaxClones {
						continue
					}
					srv, ok := ft.BestFit(demand)
					if !ok {
						continue
					}
					ft.Place(srv, demand)
					added[ref]++
					out = append(out, sched.Placement{Ref: ref, Server: srv})
				}
			}
		}
	}
	return out
}
