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
	r := s.r()
	infos := make([]core.JobInfo, 0, len(ctx.Jobs()))
	for _, js := range ctx.Jobs() {
		infos = append(infos, core.JobInfoOf(js, total, func(k workload.PhaseID) float64 {
			return js.Job.Phases[k].EffectiveDuration(r)
		}))
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
	ordered := sched.OrderBy(jobs, func(js *workload.JobState) float64 { return float64(s.prios[js.Job.ID]) })

	ft := sched.NewFitTracker(ctx.Cluster())
	am := &appMaster{ctx: ctx, ft: ft, racks: rackIndex(ctx.Cluster())}
	var out []sched.Placement

	// New-task pass: each AM binds its pending ready tasks until the
	// job's head demand fits nowhere.
	for _, js := range ordered {
		out = sched.PlaceJob(ft, sched.NewJobCursor(js), func(pt sched.PendingTask) (cluster.ServerID, bool) {
			return am.bind(js, pt.Ref, pt.Demand)
		}, out)
	}

	// Clone pass: leftover containers go to running tasks of jobs that
	// had no pending ready task when the call began, priority order,
	// locality preferred, within the δ budget.
	var drained []*sched.JobCursor
	for _, js := range ordered {
		if cur := sched.NewJobCursor(js); cur.Exhausted() {
			drained = append(drained, cur)
		}
	}
	var copies sched.CopyWalk
	rules := sched.CopyRules{Copies: 1 + s.maxClones(), Delta: s.delta()}
	return copies.Grant(ctx, ft, drained, rules, am.bind, out)
}

// appMaster is the second-level scheduler of one Schedule call, acting
// as each job's AM in turn: it knows where a job's data lives and binds
// the job's tasks to servers accordingly.
type appMaster struct {
	ctx   sched.Context
	ft    *sched.FitTracker
	racks map[int][]*cluster.Server
}

// bind picks a server for one copy of js's task ref: best fit on the
// preferred rack when possible, best fit anywhere otherwise.
func (am *appMaster) bind(js *workload.JobState, ref workload.TaskRef, demand resources.Vector) (cluster.ServerID, bool) {
	if rack, ok := am.preferredRack(js, ref); ok {
		if srv, ok := bestFitWithin(am.ft, am.ctx.Cluster(), am.racks[rack], demand); ok {
			return srv, true
		}
	}
	return am.ft.BestFit(demand)
}

// preferredRack is the §5.2 data-locality preference.
func (am *appMaster) preferredRack(js *workload.JobState, ref workload.TaskRef) (int, bool) {
	parents := js.Job.Phases[ref.Phase].Parents
	if len(parents) == 0 {
		if len(am.racks) <= 1 {
			return 0, false
		}
		return workload.InputRack(ref, rackCount(am.racks)), true
	}
	// The first parent with completed outputs decides; parents of a
	// ready phase are all complete, so this is deterministic.
	for _, par := range parents {
		if rack, ok := am.ctx.PhaseOutputRack(js.Job.ID, par); ok {
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
