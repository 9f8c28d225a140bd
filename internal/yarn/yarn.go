// Package yarn reproduces the paper's Hadoop YARN implementation
// architecture (§5.2) as a two-level scheduler:
//
//   - The Resource Manager level runs DollyMP's knapsack priorities
//     (Algorithm 1 over Eqs. 16–17) and decides how many containers each
//     job receives, in priority order — it does not pick tasks.
//   - The Application Master level (one logical AM per job) binds its
//     granted containers to concrete tasks and clones with the §5.2
//     data-locality preference: a task runs on the rack holding its
//     input (the hashed HDFS placement for root phases, the upstream
//     outputs' majority rack otherwise), and cloned copies are placed to
//     "satisfy such preferences" too.
//
// Compared to internal/core (the flat Algorithm 2), this scheduler
// trades a little packing efficiency for locality: with a cross-rack
// TransferPenalty configured in the simulator, the AM binding avoids the
// penalty that rack-oblivious placement pays.
package yarn

import (
	"fmt"
	"sort"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the two-level DollyMP-on-YARN scheduler.
type Scheduler struct {
	// MaxClones is the per-task clone cap (default 2; the container
	// request encodes it per §5.2).
	MaxClones int
	// R is the variance factor in e = θ + R·σ (default 1.5).
	R float64
	// Delta is the cloning budget fraction (default 0.3).
	Delta float64

	prios map[workload.JobID]int
}

// New builds the scheduler with the paper's defaults.
func New() *Scheduler {
	return &Scheduler{MaxClones: 2, R: 1.5, Delta: 0.3}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return fmt.Sprintf("yarn-dollymp%d", s.maxClones()) }

func (s *Scheduler) maxClones() int {
	if s.MaxClones < 0 {
		return 0
	}
	return s.MaxClones
}

func (s *Scheduler) r() float64 {
	if s.R <= 0 {
		return 1.5
	}
	return s.R
}

func (s *Scheduler) delta() float64 {
	if s.Delta <= 0 {
		return 0.3
	}
	return s.Delta
}

// OnJobArrival implements sched.ArrivalAware: the RM recomputes
// priorities when a new Application Master registers (§5).
func (s *Scheduler) OnJobArrival(ctx sched.Context, _ *workload.JobState) {
	s.recompute(ctx)
}

func (s *Scheduler) recompute(ctx sched.Context) {
	total := ctx.Cluster().Total()
	jobs := ctx.Jobs()
	infos := make([]core.JobInfo, 0, len(jobs))
	for _, js := range jobs {
		maxD := 0.0
		for k := range js.Job.Phases {
			if js.RemainingTasks(workload.PhaseID(k)) == 0 {
				continue
			}
			if d := js.Job.Phases[k].DominantShare(total); d > maxD {
				maxD = d
			}
		}
		infos = append(infos, core.JobInfo{
			ID:       js.Job.ID,
			Volume:   js.UpdatedVolume(total, s.r()),
			Time:     js.UpdatedProcessingTime(s.r()),
			Dominant: maxD,
		})
	}
	s.prios = core.Priorities(infos)
}

// Schedule implements the two-level flow: the RM walks jobs in priority
// order, and for each job the AM binds tasks to servers locality-first.
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	if len(jobs) == 0 {
		return nil
	}
	if s.prios == nil {
		s.recompute(ctx)
	}
	for _, js := range jobs {
		if _, ok := s.prios[js.Job.ID]; !ok {
			s.recompute(ctx)
			break
		}
	}

	// Priority order with deterministic tie-break.
	ordered := make([]*workload.JobState, len(jobs))
	copy(ordered, jobs)
	sortJobs(ordered, s.prios)

	ft := sched.NewFitTracker(ctx.Cluster())
	racks := rackIndex(ctx.Cluster())
	var out []sched.Placement

	// New-task pass: each AM binds its pending ready tasks.
	for _, js := range ordered {
		am := &appMaster{js: js, ctx: ctx, racks: racks}
		cur := sched.NewJobCursor(js)
		for {
			pt, ok := cur.Peek()
			if !ok {
				break
			}
			srv, ok := am.bind(ft, pt.Ref, pt.Demand)
			if !ok {
				break // this job's head demand fits nowhere right now
			}
			ft.Place(srv, pt.Demand)
			out = append(out, sched.Placement{Ref: pt.Ref, Server: srv})
			cur.Advance()
		}
	}

	// Clone pass: leftover containers go to running tasks of jobs whose
	// pending tasks are all placed, priority order, locality preferred,
	// within the δ budget.
	out = append(out, s.clonePass(ctx, ft, ordered, racks)...)
	return out
}

// clonePass tops running tasks up to 1+MaxClones copies.
func (s *Scheduler) clonePass(
	ctx sched.Context,
	ft *sched.FitTracker,
	ordered []*workload.JobState,
	racks map[int][]*cluster.Server,
) []sched.Placement {
	if s.maxClones() == 0 {
		return nil
	}
	total := ctx.Cluster().Total()
	budget := resources.Vec(
		int64(s.delta()*float64(total.CPUMilli)),
		int64(s.delta()*float64(total.MemMiB)),
	)
	cloneUse := ctx.CloneUsage()
	// Clones granted in this call are not yet counted by the job states;
	// tally them. (A task the new-task pass just placed is still pending
	// there, so it is never in a running list and needs no entry.)
	pendingCopies := make(map[workload.TaskRef]int)

	var out []sched.Placement
	for pass := 1; pass <= s.maxClones(); pass++ {
		for _, js := range ordered {
			if _, ok := sched.FirstReadyPendingTask(js); ok {
				continue // unplaced work waits; no clones for this job
			}
			am := &appMaster{js: js, ctx: ctx, racks: racks}
			for _, k := range js.ReadyPhases() {
				if js.RunningCount(k) == 0 {
					continue
				}
				demand := js.Job.Phases[k].Demand
				for _, l := range js.RunningTasks(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l}
					copies := js.LiveCopies(k, l) + pendingCopies[ref]
					if copies == 0 || copies != pass {
						continue
					}
					next := cloneUse.Add(demand)
					if !next.Fits(budget) {
						continue
					}
					srv, ok := am.bind(ft, ref, demand)
					if !ok {
						continue
					}
					ft.Place(srv, demand)
					cloneUse = next
					pendingCopies[ref]++
					out = append(out, sched.Placement{Ref: ref, Server: srv})
				}
			}
		}
	}
	return out
}

// appMaster is the per-job second-level scheduler: it knows where the
// job's data lives and binds tasks to servers accordingly.
type appMaster struct {
	js    *workload.JobState
	ctx   sched.Context
	racks map[int][]*cluster.Server
}

// bind picks a server for one task copy: best fit on the preferred rack
// when possible, best fit anywhere otherwise.
func (am *appMaster) bind(ft *sched.FitTracker, ref workload.TaskRef, demand resources.Vector) (cluster.ServerID, bool) {
	if rack, ok := am.preferredRack(ref); ok {
		if srv, ok := bestFitWithin(ft, am.ctx.Cluster(), am.racks[rack], demand); ok {
			return srv, true
		}
	}
	return ft.BestFit(demand)
}

// preferredRack is the §5.2 data-locality preference.
func (am *appMaster) preferredRack(ref workload.TaskRef) (int, bool) {
	parents := am.js.Job.Phases[ref.Phase].Parents
	if len(parents) == 0 {
		if len(am.racks) <= 1 {
			return 0, false
		}
		return workload.InputRack(ref, rackCount(am.racks)), true
	}
	// The first parent with completed outputs decides; parents of a
	// ready phase are all complete, so this is deterministic.
	for _, par := range parents {
		if rack, ok := am.ctx.PhaseOutputRack(am.js.Job.ID, par); ok {
			return rack, true
		}
	}
	return 0, false
}

func rackCount(racks map[int][]*cluster.Server) int {
	max := 0
	for r := range racks {
		if r+1 > max {
			max = r + 1
		}
	}
	return max
}

func rackIndex(c *cluster.Cluster) map[int][]*cluster.Server {
	idx := make(map[int][]*cluster.Server)
	for _, s := range c.Servers() {
		idx[s.Rack] = append(idx[s.Rack], s)
	}
	return idx
}

func bestFitWithin(ft *sched.FitTracker, c *cluster.Cluster, servers []*cluster.Server, demand resources.Vector) (cluster.ServerID, bool) {
	total := c.Total()
	best := cluster.ServerID(-1)
	bestScore := -1.0
	for _, s := range servers {
		free := ft.Free(s.ID)
		if !demand.Fits(free) {
			continue
		}
		score := demand.Dot(free, total)
		if score > bestScore {
			bestScore = score
			best = s.ID
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func sortJobs(jobs []*workload.JobState, prios map[workload.JobID]int) {
	sort.SliceStable(jobs, func(i, j int) bool {
		pa, pb := prios[jobs[i].Job.ID], prios[jobs[j].Job.ID]
		if pa != pb {
			return pa < pb
		}
		return jobs[i].Job.ID < jobs[j].Job.ID
	})
}
