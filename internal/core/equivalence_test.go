package core_test

// The decision-cost campaign (scratch reuse, class compaction, cached
// server order, lazy priority recompute) must not move a single
// placement: every optimization in core.Scheduler carries a proof
// sketch of output identity, and this file pins the claim empirically.
// seedScheduler below is a faithful copy of the pre-campaign scheduler
// — map-grouped classes, per-call cursor and fit-tracker allocation,
// knapsack-backed Priorities, eager per-arrival recompute — and the
// property test drives both schedulers through full stochastic
// multi-phase simulations, demanding bit-identical event traces.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
	"dollymp/internal/knapsack"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// seedFit is the pre-campaign FitTracker: live cluster reads plus a
// map-keyed tentative-usage overlay.
type seedFit struct {
	c    *cluster.Cluster
	used map[cluster.ServerID]resources.Vector
}

func newSeedFit(c *cluster.Cluster) *seedFit {
	return &seedFit{c: c, used: make(map[cluster.ServerID]resources.Vector)}
}

func (f *seedFit) Free(id cluster.ServerID) resources.Vector {
	return f.c.Server(id).Free().Sub(f.used[id])
}

func (f *seedFit) Place(id cluster.ServerID, demand resources.Vector) bool {
	if !demand.Fits(f.Free(id)) {
		return false
	}
	f.used[id] = f.used[id].Add(demand)
	return true
}

func (f *seedFit) BestFit(demand resources.Vector) (cluster.ServerID, bool) {
	total := f.c.Total()
	best := cluster.ServerID(-1)
	bestScore := -1.0
	for _, s := range f.c.Servers() {
		free := f.Free(s.ID)
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

// seedPriorities is the pre-campaign Algorithm 1: knapsack.MaxCardinality
// per geometric class, no class cap.
func seedPriorities(jobs []core.JobInfo) map[workload.JobID]int {
	out := make(map[workload.JobID]int, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	g := seedClassCount(jobs)
	assigned := make(map[workload.JobID]bool, len(jobs))
	for l := 1; l <= g; l++ {
		budget := math.Pow(2, float64(l))
		var items []knapsack.Item
		idx := make(map[int]workload.JobID)
		for i, j := range jobs {
			if j.Time <= budget {
				items = append(items, knapsack.Item{ID: i, Weight: j.Volume})
				idx[i] = j.ID
			}
		}
		for _, id := range knapsack.MaxCardinality(items, budget) {
			jid := idx[id]
			if !assigned[jid] {
				assigned[jid] = true
				out[jid] = l
			}
		}
	}
	for _, j := range jobs {
		if !assigned[j.ID] {
			out[j.ID] = g + 1
		}
	}
	return out
}

func seedClassCount(jobs []core.JobInfo) int {
	sumV, maxD, maxT := 0.0, 0.0, 0.0
	for _, j := range jobs {
		sumV += j.Volume
		if j.Dominant > maxD {
			maxD = j.Dominant
		}
		if j.Time > maxT {
			maxT = j.Time
		}
	}
	if maxD >= 1 {
		maxD = 1 - 1e-9
	}
	g := 1
	if sumV > 0 {
		g = int(math.Ceil(math.Log2(sumV / (1 - maxD))))
	}
	if maxT > 0 {
		if need := int(math.Ceil(math.Log2(maxT))); need > g {
			g = need
		}
	}
	if g < 1 {
		g = 1
	}
	return g
}

// seedScheduler is the pre-campaign core.Scheduler, kept verbatim as
// the equivalence oracle.
type seedScheduler struct {
	maxClones       int
	r               float64
	delta           float64
	avoidStragglers bool
	estimator       *estimate.Estimator
	speculate       bool
	specThreshold   float64
	specMinSample   int

	prios map[workload.JobID]int
}

func (s *seedScheduler) Name() string { return "seed-dollymp" }

func (s *seedScheduler) OnJobArrival(ctx sched.Context, _ *workload.JobState) {
	s.recompute(ctx)
}

func (s *seedScheduler) recompute(ctx sched.Context) {
	total := ctx.Cluster().Total()
	jobs := ctx.Jobs()
	infos := make([]core.JobInfo, 0, len(jobs))
	for _, js := range jobs {
		infos = append(infos, s.jobInfo(ctx, js, total))
	}
	s.prios = seedPriorities(infos)
}

func (s *seedScheduler) jobInfo(ctx sched.Context, js *workload.JobState, total resources.Vector) core.JobInfo {
	maxD := 0.0
	for k := range js.Job.Phases {
		if js.RemainingTasks(workload.PhaseID(k)) == 0 {
			continue
		}
		if d := js.Job.Phases[k].DominantShare(total); d > maxD {
			maxD = d
		}
	}
	eff := func(k workload.PhaseID) float64 {
		return js.Job.Phases[k].EffectiveDuration(s.r)
	}
	if s.estimator != nil {
		eff = func(k workload.PhaseID) float64 {
			est := s.estimatePhase(ctx, js, k)
			return est.Mean + s.r*est.SD
		}
	}
	return core.JobInfo{
		ID:       js.Job.ID,
		Volume:   js.UpdatedVolumeWith(total, eff),
		Time:     js.UpdatedProcessingTimeWith(eff),
		Dominant: maxD,
	}
}

func (s *seedScheduler) estimatePhase(ctx sched.Context, js *workload.JobState, k workload.PhaseID) estimate.Estimate {
	key := estimate.Key{App: js.Job.App, Phase: js.Job.Phases[k].Name}
	mean, sd, n := ctx.PhaseStats(js.Job.ID, k)
	if n == 0 {
		mean, sd = 0, 0
	} else {
		s.estimator.Record(key, mean, sd, n)
	}
	return s.estimator.Estimate(key, mean, sd, n)
}

func (s *seedScheduler) harvest(ctx sched.Context) {
	for _, js := range ctx.Jobs() {
		for k := range js.Job.Phases {
			kid := workload.PhaseID(k)
			mean, sd, n := ctx.PhaseStats(js.Job.ID, kid)
			if n > 0 {
				s.estimator.Record(estimate.Key{App: js.Job.App, Phase: js.Job.Phases[k].Name}, mean, sd, n)
			}
		}
	}
}

func (s *seedScheduler) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	if len(jobs) == 0 {
		return nil
	}
	if s.estimator != nil {
		s.harvest(ctx)
	}
	for _, js := range jobs {
		if _, ok := s.prios[js.Job.ID]; !ok {
			s.recompute(ctx)
			break
		}
	}

	total := ctx.Cluster().Total()
	ft := newSeedFit(ctx.Cluster())

	classes := make(map[int][]*workload.JobState)
	maxClass := 0
	for _, js := range jobs {
		p := s.prios[js.Job.ID]
		classes[p] = append(classes[p], js)
		if p > maxClass {
			maxClass = p
		}
	}

	cursors := make(map[workload.JobID]*sched.JobCursor, len(jobs))
	for _, js := range jobs {
		cursors[js.Job.ID] = sched.NewJobCursor(js)
	}

	var out []sched.Placement
	for _, srv := range s.serverOrder(ctx) {
		if ft.Free(srv.ID).IsZero() {
			continue
		}
		for l := 1; l <= maxClass; l++ {
			members := classes[l]
			if len(members) == 0 {
				continue
			}
			for {
				bestJob := -1
				bestScore := -1.0
				free := ft.Free(srv.ID)
				for i, js := range members {
					pt, ok := cursors[js.Job.ID].Peek()
					if !ok {
						continue
					}
					if !pt.Demand.Fits(free) {
						continue
					}
					score := pt.Demand.Dot(free, total)
					if score > bestScore {
						bestScore = score
						bestJob = i
					}
				}
				if bestJob < 0 {
					break
				}
				cur := cursors[members[bestJob].Job.ID]
				pt, _ := cur.Peek()
				ft.Place(srv.ID, pt.Demand)
				cur.Advance()
				out = append(out, sched.Placement{Ref: pt.Ref, Server: srv.ID})
			}
		}
	}

	switch {
	case s.speculate:
		out = append(out, s.speculationPass(ctx, ft, classes, maxClass, cursors)...)
	case s.maxClones > 0:
		out = append(out, s.clonePasses(ctx, ft, classes, maxClass, cursors)...)
	}
	return out
}

func (s *seedScheduler) serverOrder(ctx sched.Context) []*cluster.Server {
	servers := ctx.Cluster().Servers()
	if !s.avoidStragglers {
		return servers
	}
	ordered := make([]*cluster.Server, len(servers))
	copy(ordered, servers)
	speed := make([]float64, len(servers))
	for _, srv := range servers {
		est, n := ctx.ObservedServerSpeed(srv.ID)
		if n == 0 {
			est = 1
		}
		speed[srv.ID] = est
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		sa, sb := speed[ordered[a].ID], speed[ordered[b].ID]
		if sa != sb {
			return sa > sb
		}
		return ordered[a].ID < ordered[b].ID
	})
	return ordered
}

func (s *seedScheduler) speculationPass(
	ctx sched.Context,
	ft *seedFit,
	classes map[int][]*workload.JobState,
	maxClass int,
	cursors map[workload.JobID]*sched.JobCursor,
) []sched.Placement {
	total := ctx.Cluster().Total()
	budget := resources.Vec(
		int64(s.delta*float64(total.CPUMilli)),
		int64(s.delta*float64(total.MemMiB)),
	)
	cloneUse := ctx.CloneUsage()
	now := ctx.Now()

	var out []sched.Placement
	for l := 1; l <= maxClass; l++ {
		for _, js := range classes[l] {
			if !cursors[js.Job.ID].Exhausted() {
				continue
			}
			for _, k := range js.ReadyPhases() {
				if js.RunningCount(k) == 0 {
					continue
				}
				mean, _, n := ctx.PhaseStats(js.Job.ID, k)
				if n < s.specMinSample || mean <= 0 {
					continue
				}
				demand := js.Job.Phases[k].Demand
				for _, lidx := range js.RunningTasks(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: lidx}
					copies := ctx.Copies(ref)
					if len(copies) != 1 {
						continue
					}
					if float64(now-copies[0].Start) <= s.specThreshold*mean {
						continue
					}
					next := cloneUse.Add(demand)
					if !next.Fits(budget) {
						continue
					}
					srv, ok := ft.BestFit(demand)
					if !ok {
						continue
					}
					ft.Place(srv, demand)
					cloneUse = next
					out = append(out, sched.Placement{Ref: ref, Server: srv})
				}
			}
		}
	}
	return out
}

func (s *seedScheduler) clonePasses(
	ctx sched.Context,
	ft *seedFit,
	classes map[int][]*workload.JobState,
	maxClass int,
	cursors map[workload.JobID]*sched.JobCursor,
) []sched.Placement {
	total := ctx.Cluster().Total()
	budget := resources.Vec(
		int64(s.delta*float64(total.CPUMilli)),
		int64(s.delta*float64(total.MemMiB)),
	)
	cloneUse := ctx.CloneUsage()
	added := make(map[workload.TaskRef]int)

	var out []sched.Placement
	for pass := 1; pass <= s.maxClones; pass++ {
		for l := 1; l <= maxClass; l++ {
			for _, js := range classes[l] {
				if !cursors[js.Job.ID].Exhausted() {
					continue
				}
				for _, k := range js.ReadyPhases() {
					if js.RunningCount(k) == 0 {
						continue
					}
					demand := js.Job.Phases[k].Demand
					for _, lidx := range js.RunningTasks(k) {
						ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: lidx}
						copies := len(ctx.Copies(ref)) + added[ref]
						if copies == 0 || copies != pass {
							continue
						}
						next := cloneUse.Add(demand)
						if !next.Fits(budget) {
							continue
						}
						srv, ok := ft.BestFit(demand)
						if !ok {
							continue
						}
						ft.Place(srv, demand)
						cloneUse = next
						added[ref]++
						out = append(out, sched.Placement{Ref: ref, Server: srv})
					}
				}
			}
		}
	}
	return out
}

// equivJobs builds a stochastic multi-phase workload deep enough that
// servers drain mid-call, clone passes fire, and the backlog spans many
// priority classes.
func equivJobs(seed uint64, n int) []*workload.Job {
	rng := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]*workload.Job, n)
	arrival := int64(0)
	apps := []string{"wordcount", "pagerank", "sort"}
	for i := range jobs {
		arrival += int64(rng.Intn(3))
		phases := []workload.Phase{{
			Name: "map", Tasks: 1 + rng.Intn(8),
			Demand:       resources.Cores(1+int64(rng.Intn(3)), 1+int64(rng.Intn(4))),
			MeanDuration: 2 + 6*rng.Float64(), SDDuration: 1 + 2*rng.Float64(),
		}}
		if rng.Intn(2) == 0 {
			phases = append(phases, workload.Phase{
				Name: "reduce", Tasks: 1 + rng.Intn(3),
				Demand:       resources.Cores(1, 1+int64(rng.Intn(2))),
				MeanDuration: 1 + 4*rng.Float64(), SDDuration: 0.5 + rng.Float64(),
				Parents: []workload.PhaseID{0},
			})
		}
		if rng.Intn(4) == 0 {
			phases = append(phases, workload.Phase{
				Name: "merge", Tasks: 1,
				Demand:       resources.Cores(1, 1),
				MeanDuration: 1 + 2*rng.Float64(), SDDuration: 0.5,
				Parents: []workload.PhaseID{workload.PhaseID(len(phases) - 1)},
			})
		}
		jobs[i] = &workload.Job{
			ID: workload.JobID(i + 1), Name: fmt.Sprintf("job-%d", i+1),
			App: apps[rng.Intn(len(apps))], Arrival: arrival, Phases: phases,
		}
	}
	return jobs
}

// packingJobs turns equivJobs into the packing regime's workload: every
// job arrives at slot 0 and has at least two phases with different
// demands, so heads move to a new demand as soon as a job's first phase
// is placed — within one Schedule call as well as between calls.
func packingJobs(seed uint64, n int) []*workload.Job {
	jobs := equivJobs(seed, n)
	for i, j := range jobs {
		j.Arrival = 0
		if len(j.Phases) == 1 {
			j.Phases = append(j.Phases, workload.Phase{
				Name: "reduce", Tasks: 1 + i%3,
				Demand:       resources.Cores(1+int64(i%2), 2+int64(i%3)),
				MeanDuration: 2 + float64(i%4), SDDuration: 1,
				Parents: []workload.PhaseID{0},
			})
		}
	}
	return jobs
}

// packedFailures perturbs a packing run: two servers fail while their
// tasks' jobs still queue, so MarkPending moves heads backwards between
// two calls, and one comes back.
var packedFailures = []sim.Event{
	{At: 9, Server: 0, Kind: sim.EventFail},
	{At: 21, Server: 3, Kind: sim.EventFail},
	{At: 40, Server: 0, Kind: sim.EventRestore},
}

// TestScheduleEquivalenceProperty is the campaign's pinning test: for
// ≥8 seeds and every scheduler variant, the optimized Scheduler and the
// seed copy must emit identical placement sequences — compared through
// the full simulation trace (every place, complete, and kill event),
// the makespan, and the Schedule call count. Durations are stochastic:
// one placement moved anywhere would shift an RNG draw and cascade.
func TestScheduleEquivalenceProperty(t *testing.T) {
	variants := []struct {
		name string
		opt  func() (*core.Scheduler, *seedScheduler)
	}{
		{"clones2", func() (*core.Scheduler, *seedScheduler) {
			return core.MustNew(),
				&seedScheduler{maxClones: 2, r: 1.5, delta: 0.3, prios: map[workload.JobID]int{}}
		}},
		{"clones0", func() (*core.Scheduler, *seedScheduler) {
			return core.MustNew(core.WithClones(0)),
				&seedScheduler{maxClones: 0, r: 1.5, delta: 0.3, prios: map[workload.JobID]int{}}
		}},
		{"avoidance", func() (*core.Scheduler, *seedScheduler) {
			return core.MustNew(core.WithStragglerAvoidance(true)),
				&seedScheduler{maxClones: 2, r: 1.5, delta: 0.3, avoidStragglers: true, prios: map[workload.JobID]int{}}
		}},
		{"estimation", func() (*core.Scheduler, *seedScheduler) {
			cfg := estimate.Config{MinSamples: 3}
			return core.MustNew(core.WithEstimation(cfg)),
				&seedScheduler{maxClones: 2, r: 1.5, delta: 0.3, estimator: estimate.New(cfg), prios: map[workload.JobID]int{}}
		}},
		{"speculation", func() (*core.Scheduler, *seedScheduler) {
			return core.MustNew(core.WithSpeculation(1.5, 2)),
				&seedScheduler{maxClones: 2, r: 1.5, delta: 0.3, speculate: true, specThreshold: 1.5, specMinSample: 2, prios: map[workload.JobID]int{}}
		}},
		{"clones2-delta0.02", func() (*core.Scheduler, *seedScheduler) {
			return core.MustNew(core.WithCloneBudget(0.02)),
				&seedScheduler{maxClones: 2, r: 1.5, delta: 0.02, prios: map[workload.JobID]int{}}
		}},
	}
	type cell struct {
		variant       int
		seed          uint64
		servers, jobs int
		// packing queues every job at slot 0 (packingJobs) instead of
		// pacing equivJobs' arrivals; events perturb the fleet mid-run.
		packing bool
		events  []sim.Event
	}
	var cells []cell
	for seed := uint64(1); seed <= 8; seed++ {
		for v := range variants {
			cells = append(cells, cell{variant: v, seed: seed, servers: 16, jobs: 80})
		}
	}
	// One fleet-scale cell: 1200 servers put the fit index eleven levels
	// deep, and 600 jobs on them is the light-load regime where nearly
	// every task is cloned through BestFit.
	cells = append(cells, cell{variant: 0, seed: 9, servers: 1200, jobs: 600})
	// Two packing cells: 1500 multi-phase jobs queued at once on 40
	// servers, so classes run to hundreds of members — head indexes
	// several levels deep, searched hundreds of times a call while heads
	// drain and move to their next phase under them. The second loses
	// two servers mid-run and gets one back: MarkPending moves the heads
	// of the jobs that ran there backwards between two calls.
	cells = append(cells,
		cell{variant: 0, seed: 10, servers: 40, jobs: 1500, packing: true},
		cell{variant: 0, seed: 11, servers: 32, jobs: 1500, packing: true, events: packedFailures},
	)
	// Two more for the redundancy passes' entry check, which the seed
	// copy does not have: speculation's backups on a packed fleet (the
	// exit on a floor that fits nowhere), and cloning under a δ so small
	// that the budget is spent while servers still have room (the exit
	// on a floor over budget).
	cells = append(cells,
		cell{variant: 4, seed: 12, servers: 24, jobs: 800, packing: true},
		cell{variant: 5, seed: 13, servers: 24, jobs: 800, packing: true},
	)
	for _, c := range cells {
		c, v := c, variants[c.variant]
		t.Run(fmt.Sprintf("%s/seed=%d/servers=%d", v.name, c.seed, c.servers), func(t *testing.T) {
			t.Parallel()
			opt, ref := v.opt()

			run := func(s sched.Scheduler) *sim.Result {
				jobs := equivJobs(c.seed, c.jobs)
				if c.packing {
					jobs = packingJobs(c.seed, c.jobs)
				}
				e, err := sim.New(sim.Config{
					Cluster:     cluster.LargeFleet(c.servers, c.seed),
					Jobs:        jobs,
					Scheduler:   s,
					Seed:        c.seed,
					Paranoid:    true,
					RecordTrace: true,
					Events:      c.events,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got := run(opt)
			want := run(ref)

			if got.SchedCalls != want.SchedCalls {
				t.Errorf("sched calls: optimized %d, seed %d", got.SchedCalls, want.SchedCalls)
			}
			if got.Makespan != want.Makespan {
				t.Errorf("makespan: optimized %d, seed %d", got.Makespan, want.Makespan)
			}
			if len(got.Trace) != len(want.Trace) {
				t.Fatalf("trace length: optimized %d, seed %d", len(got.Trace), len(want.Trace))
			}
			for i := range got.Trace {
				if got.Trace[i] != want.Trace[i] {
					t.Fatalf("trace[%d]: optimized %+v, seed %+v", i, got.Trace[i], want.Trace[i])
				}
			}
		})
	}
}
