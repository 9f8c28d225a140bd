package core

import (
	"fmt"
	"sort"

	"dollymp/internal/cluster"
	"dollymp/internal/estimate"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// Scheduler is the online DollyMP scheduler (Algorithm 2). Construct with
// New; the clone limit selects the DollyMP⁰/¹/²/³ variant of the
// evaluation.
type Scheduler struct {
	// maxClones is the maximum number of extra copies per running task
	// (2 by default, per §5's two-clone rule).
	maxClones int
	// r is the variance factor in e = θ + r·σ (default 1.5, §6.1).
	r float64
	// delta is the cloning budget: clone copies may hold at most
	// delta × total cluster capacity in each dimension (default 0.3,
	// §6.1), implementing §4.1's rule that cloning must not crowd out
	// the demand of other jobs.
	delta float64
	// avoidStragglers enables the paper's future-work extension:
	// servers are visited fastest-learned-first (using the online
	// speed estimates of sched.Context.ObservedServerSpeed), steering
	// work away from straggler-prone machines.
	avoidStragglers bool
	// estimator, when set, replaces the declared task statistics with
	// §5.2-style AM estimates (current phase → recurring jobs →
	// framework history → prior). Without it the scheduler reads the
	// workload's declared mean/sd, the oracle setting.
	estimator *estimate.Estimator
	// speculate switches the redundancy mechanism from proactive
	// cloning to reactive LATE-style speculation: instead of clone
	// passes, a single backup copy is launched for a running task once
	// it has run longer than specThreshold × the phase's observed mean
	// (with ≥ specMinSamples completed tasks). Used to compare the two
	// redundancy mechanisms under the identical scheduling policy —
	// the contrast §1 draws.
	speculate     bool
	specThreshold float64
	specMinSample int

	prios map[workload.JobID]int
	// pendingArrivals defers the per-arrival priority recomputation to
	// the next Schedule call. The engine notifies arrivals and
	// immediately enters its schedule loop with no state change in
	// between, so a deferred recompute per decision point replaces one
	// recompute per arrived job — placement-for-placement identical,
	// and the dominant saving under bursty arrivals. The count (not a
	// bool) matters only in estimation mode: see Schedule.
	pendingArrivals int

	scratch scratch
}

// member pairs a class member with its task cursor for the placement
// passes, so the inner scans stop paying a map lookup per probe.
type member struct {
	js  *workload.JobState
	cur *sched.JobCursor
}

// scratch is the allocation-heavy state Schedule used to rebuild every
// call, now reused across calls. A Scheduler is confined to one
// goroutine (like the engine that owns it), so plain buffers suffice.
type scratch struct {
	ft      *sched.FitTracker
	cursors []sched.JobCursor
	// prevJobs is how many cursors the previous call used; reset nils
	// the stale JobState pointers beyond the current count so completed
	// jobs do not linger reachable.
	prevJobs int
	// classes[l] holds every member of class l (the clone passes need
	// drained jobs too); active[l] is the subset with a schedulable head,
	// compacted in place as cursors drain.
	classes [][]member
	active  [][]member
	// minDemand[l] is a component-wise lower bound on every active
	// member's current head demand. It only ever moves down (Min on
	// every observed head change), so if it does not fit a server's
	// free vector, nothing in the class does and the scan is skipped.
	minDemand []resources.Vector

	infos []JobInfo
	prio  prioScratch

	// Server-order cache for straggler avoidance: the sorted visit
	// order plus the per-position speed snapshot it was derived from.
	// An O(n) speed comparison per call replaces an O(n log n) sort.
	orderFleet  *cluster.Cluster
	orderSorted []*cluster.Server
	orderSpeeds []float64
	orderBuf    []serverSpeed

	// cloneCands is the clone passes' work list: see clonePasses.
	cloneCands []cloneCand

	// out backs the slice Schedule returns, which the Scheduler contract
	// lets it overwrite on the next call.
	out []sched.Placement
}

// cloneCand is a running task that a later clone pass may still top
// up, with the copy count it will have once this call's placements are
// applied.
type cloneCand struct {
	ref    workload.TaskRef
	demand resources.Vector
	copies int
}

type serverSpeed struct {
	srv   *cluster.Server
	speed float64
}

// fitTracker returns the reused tracker re-snapshotted on the cluster.
func (sc *scratch) fitTracker(c *cluster.Cluster) *sched.FitTracker {
	if sc.ft == nil {
		sc.ft = sched.NewFitTracker(c)
		return sc.ft
	}
	sc.ft.Reset(c)
	return sc.ft
}

// reset prepares the per-call buffers for maxClass classes and n jobs.
func (sc *scratch) reset(maxClass, n int) {
	if len(sc.cursors) < n {
		grown := make([]sched.JobCursor, n+len(sc.cursors))
		copy(grown, sc.cursors)
		sc.cursors = grown
	}
	for i := n; i < sc.prevJobs; i++ {
		sc.cursors[i].JS = nil
	}
	sc.prevJobs = n
	for len(sc.classes) <= maxClass {
		sc.classes = append(sc.classes, nil)
		sc.active = append(sc.active, nil)
		sc.minDemand = append(sc.minDemand, resources.Vector{})
	}
	for l := range sc.classes {
		clear(sc.classes[l])
		sc.classes[l] = sc.classes[l][:0]
		clear(sc.active[l])
		sc.active[l] = sc.active[l][:0]
	}
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithClones sets the per-task clone limit k (DollyMP^k). k must be in
// [0, 3].
func WithClones(k int) Option {
	return func(s *Scheduler) { s.maxClones = k }
}

// WithVarianceFactor sets r in e = θ + r·σ.
func WithVarianceFactor(r float64) Option {
	return func(s *Scheduler) { s.r = r }
}

// WithCloneBudget sets δ, the cluster-capacity fraction clones may hold.
func WithCloneBudget(delta float64) Option {
	return func(s *Scheduler) { s.delta = delta }
}

// WithStragglerAvoidance enables learned straggler-prone-server
// avoidance (the paper's §8 future work): servers are considered
// fastest-first according to online speed estimates.
func WithStragglerAvoidance(on bool) Option {
	return func(s *Scheduler) { s.avoidStragglers = on }
}

// WithEstimation makes the scheduler estimate task statistics the way
// the paper's Application Master does (§5.2) instead of reading the
// declared ground truth.
func WithEstimation(cfg estimate.Config) Option {
	return func(s *Scheduler) { s.estimator = estimate.New(cfg) }
}

// WithSpeculation replaces proactive cloning with reactive LATE-style
// speculation under the same DollyMP priorities and δ budget: one backup
// for a running task once its elapsed time exceeds threshold × the
// phase's observed mean over at least minSamples completed tasks.
// Combine with WithClones(0)-like behaviour implicitly — the clone
// passes are disabled while speculation is on.
func WithSpeculation(threshold float64, minSamples int) Option {
	return func(s *Scheduler) {
		s.speculate = true
		s.specThreshold = threshold
		s.specMinSample = minSamples
	}
}

// New builds a DollyMP scheduler with the paper's defaults: two clones,
// r = 1.5, δ = 0.3.
func New(opts ...Option) (*Scheduler, error) {
	s := &Scheduler{
		maxClones: 2,
		r:         1.5,
		delta:     0.3,
		prios:     make(map[workload.JobID]int),
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxClones < 0 || s.maxClones > 3 {
		return nil, fmt.Errorf("core: clone limit %d out of [0, 3]", s.maxClones)
	}
	if s.speculate {
		if !(s.specThreshold > 1) {
			return nil, fmt.Errorf("core: speculation threshold %v must exceed 1", s.specThreshold)
		}
		if s.specMinSample < 1 {
			return nil, fmt.Errorf("core: speculation needs at least 1 sample, got %d", s.specMinSample)
		}
	}
	if s.r < 0 {
		return nil, fmt.Errorf("core: variance factor %v negative", s.r)
	}
	if s.delta < 0 || s.delta > 1 {
		return nil, fmt.Errorf("core: clone budget %v out of [0, 1]", s.delta)
	}
	return s, nil
}

// MustNew is New panicking on error; for tests and examples with
// constant options.
func MustNew(opts ...Option) *Scheduler {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements sched.Scheduler, reporting the DollyMP^k variant (or
// the speculation variant).
func (s *Scheduler) Name() string {
	if s.speculate {
		return "dollymp-spec"
	}
	return fmt.Sprintf("dollymp%d", s.maxClones)
}

// MaxClones returns the per-task clone limit.
func (s *Scheduler) MaxClones() int { return s.maxClones }

// OnJobArrival implements sched.ArrivalAware: priorities are recomputed
// only when a new job enters the cluster (§5), using the updated volumes
// and processing times of Eqs. (16)–(17). The recomputation itself is
// deferred to the next Schedule call — the engine schedules immediately
// after delivering arrivals with no state change in between, so a burst
// of arrivals costs one recompute instead of one each.
func (s *Scheduler) OnJobArrival(sched.Context, *workload.JobState) {
	s.pendingArrivals++
}

// RecomputePriorities runs the Algorithm 1 recomputation immediately —
// the per-arrival work OnJobArrival defers to the next Schedule call.
// Exposed for overhead measurements that want the cost inline.
func (s *Scheduler) RecomputePriorities(ctx sched.Context) {
	s.recompute(ctx)
	s.pendingArrivals = 0
}

func (s *Scheduler) recompute(ctx sched.Context) {
	total := ctx.Cluster().Total()
	jobs := ctx.Jobs()
	infos := s.scratch.infos[:0]
	for _, js := range jobs {
		infos = append(infos, s.jobInfo(ctx, js, total))
	}
	s.scratch.infos = infos
	s.prios = prioritiesInto(infos, s.prios, &s.scratch.prio)
}

func (s *Scheduler) jobInfo(ctx sched.Context, js *workload.JobState, total resources.Vector) JobInfo {
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
	return JobInfo{
		ID:       js.Job.ID,
		Volume:   js.UpdatedVolumeWith(total, eff),
		Time:     js.UpdatedProcessingTimeWith(eff),
		Dominant: maxD,
	}
}

// estimatePhase produces the §5.2 AM estimate for one phase, using only
// observed statistics — never the declared ground truth.
func (s *Scheduler) estimatePhase(ctx sched.Context, js *workload.JobState, k workload.PhaseID) estimate.Estimate {
	key := estimate.Key{App: js.Job.App, Phase: js.Job.Phases[k].Name}
	mean, sd, n := ctx.PhaseStats(js.Job.ID, k)
	if n == 0 {
		// PhaseStats falls back to declared values when nothing has
		// completed; estimation mode must not see them.
		mean, sd = 0, 0
	} else {
		s.estimator.Record(key, mean, sd, n)
	}
	return s.estimator.Estimate(key, mean, sd, n)
}

// harvest feeds every active job's observed phase statistics into the
// estimator so recurring-job history survives job completion.
func (s *Scheduler) harvest(ctx sched.Context) {
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

// Schedule implements Algorithm 2: a new-task pass over priority classes
// (best resource fit within a class), then up to maxClones clone passes
// over running tasks in the same priority order, constrained by the δ
// cloning budget. Every placement it emits is identical to the
// straightforward per-call-rebuild formulation; the scratch reuse,
// member compaction and demand floors only remove provably fruitless
// work (pinned by the cross-seed equivalence property test).
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	if len(jobs) == 0 {
		return nil
	}
	if s.pendingArrivals > 0 {
		// Deferred from OnJobArrival. Run it before harvest, exactly
		// where the eager per-arrival recompute sat relative to the
		// Schedule-time harvest, so the estimator folds observations in
		// an identical order. In estimation mode a burst of arrivals
		// needs one extra pass: the eager scheduler's *last* recompute
		// estimated against history that already held the active jobs'
		// own records (folded by its first pass), and the estimator's
		// Record watermark makes every pass after the second a fixed
		// point — so two passes reproduce N exactly.
		s.recompute(ctx)
		if s.pendingArrivals > 1 && s.estimator != nil {
			s.recompute(ctx)
		}
		s.pendingArrivals = 0
	}
	if s.estimator != nil {
		s.harvest(ctx)
	}
	// A job without a priority (e.g. first call before any arrival
	// notification) forces a recompute.
	for _, js := range jobs {
		if _, ok := s.prios[js.Job.ID]; !ok {
			s.recompute(ctx)
			break
		}
	}

	total := ctx.Cluster().Total()
	sc := &s.scratch
	ft := sc.fitTracker(ctx.Cluster())

	// Group jobs by priority class, one pooled cursor each. Cursors are
	// O(1) per probe regardless of backlog depth, which keeps heavy-load
	// decisions O(active jobs).
	maxClass := 0
	for _, js := range jobs {
		if p := s.prios[js.Job.ID]; p > maxClass {
			maxClass = p
		}
	}
	sc.reset(maxClass, len(jobs))
	for i, js := range jobs {
		cur := &sc.cursors[i]
		cur.Reset(js)
		sc.classes[s.prios[js.Job.ID]] = append(sc.classes[s.prios[js.Job.ID]], member{js: js, cur: cur})
	}

	// Active members are those with a schedulable task right now; jobs
	// drained before the call starts (everything running/done) never
	// enter the scan. minDemand starts as the per-class floor over the
	// active heads.
	activeTotal := 0
	for l := 1; l <= maxClass; l++ {
		for _, m := range sc.classes[l] {
			pt, ok := m.cur.Peek()
			if !ok {
				continue
			}
			if len(sc.active[l]) == 0 {
				sc.minDemand[l] = pt.Demand
			} else {
				sc.minDemand[l] = sc.minDemand[l].Min(pt.Demand)
			}
			sc.active[l] = append(sc.active[l], m)
			activeTotal++
		}
	}

	out := sc.out[:0]

	// New-task pass (Steps 6–15): per server, classes in ascending
	// order; within a class pick the task maximizing the inner product
	// between demand and the server's remaining capacity.
	for _, srv := range s.serverOrder(ctx) {
		if activeTotal == 0 {
			break // every pending task placed; servers differ no more
		}
		free := ft.Free(srv.ID)
		if free.IsZero() {
			continue
		}
		for l := 1; l <= maxClass; l++ {
			act := sc.active[l]
			if len(act) == 0 {
				continue
			}
			if !sc.minDemand[l].Fits(free) {
				continue // nothing in the class can fit this server
			}
			for {
				best := -1
				bestScore := -1.0
				w := 0
				for _, m := range act {
					pt, ok := m.cur.Peek()
					if !ok {
						activeTotal-- // drained: compact out for good
						continue
					}
					act[w] = m
					w++
					if !pt.Demand.Fits(free) {
						continue
					}
					if score := pt.Demand.Dot(free, total); score > bestScore {
						bestScore = score
						best = w - 1
					}
				}
				act = act[:w]
				if best < 0 {
					break
				}
				m := act[best]
				pt, _ := m.cur.Peek()
				ft.Place(srv.ID, pt.Demand)
				free = free.Sub(pt.Demand)
				m.cur.Advance()
				if npt, ok := m.cur.Peek(); ok && npt.Demand != pt.Demand {
					// Keep the floor an under-approximation as heads
					// move to later phases with different demands.
					sc.minDemand[l] = sc.minDemand[l].Min(npt.Demand)
				}
				out = append(out, sched.Placement{Ref: pt.Ref, Server: srv.ID})
			}
			sc.active[l] = act
		}
	}

	// Redundancy: clone passes (Step 16) by default; LATE-style backups
	// when speculation is selected. Both run only after the new-task
	// pass and both respect the δ budget.
	switch {
	case s.speculate:
		out = s.speculationPass(ctx, ft, sc, maxClass, out)
	case s.maxClones > 0:
		out = s.clonePasses(ctx, ft, sc, maxClass, out)
	}
	sc.out = out
	return out
}

// speculationPass launches one backup copy per detected straggler, in
// priority-class order, within the δ budget. Detection mirrors the
// Capacity baseline's LATE rule but placement follows DollyMP's
// priorities instead of best effort. Backups are appended to out.
func (s *Scheduler) speculationPass(
	ctx sched.Context,
	ft *sched.FitTracker,
	sc *scratch,
	maxClass int,
	out []sched.Placement,
) []sched.Placement {
	total := ctx.Cluster().Total()
	budget := resources.Vec(
		int64(s.delta*float64(total.CPUMilli)),
		int64(s.delta*float64(total.MemMiB)),
	)
	cloneUse := ctx.CloneUsage()
	now := ctx.Now()

	for l := 1; l <= maxClass; l++ {
		for _, m := range sc.classes[l] {
			if !m.cur.Exhausted() {
				continue // pending work first, as with cloning
			}
			js := m.js
			for _, k := range m.cur.Phases() {
				if js.RunningCount(k) == 0 {
					continue
				}
				mean, _, n := ctx.PhaseStats(js.Job.ID, k)
				if n < s.specMinSample || mean <= 0 {
					continue
				}
				demand := js.Job.Phases[k].Demand
				if !cloneUse.Add(demand).Fits(budget) {
					continue // δ budget exhausted for this shape
				}
				for _, lidx := range js.RunningTasksView(k) {
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: lidx}
					copies := ctx.Copies(ref)
					if len(copies) != 1 {
						continue // already has a backup
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

// serverOrder returns the fleet in placement-visit order: by ID, or —
// with straggler avoidance on — fastest learned speed first so work
// lands on healthy machines before straggler-prone ones. The sorted
// order is cached between calls and invalidated by comparing the
// learned speeds position by position, so a quiet fleet costs a linear
// scan instead of a sort. Speeds are tracked by fleet position, never
// indexed by server ID, so sparse-ID fleets (e.g. a partition keeping
// global IDs) sort correctly.
func (s *Scheduler) serverOrder(ctx sched.Context) []*cluster.Server {
	servers := ctx.Cluster().Servers()
	if !s.avoidStragglers {
		return servers
	}
	sc := &s.scratch
	fresh := sc.orderFleet == ctx.Cluster() && len(sc.orderSpeeds) == len(servers)
	if fresh {
		for i, srv := range servers {
			est, n := ctx.ObservedServerSpeed(srv.ID)
			if n == 0 {
				est = 1
			}
			if sc.orderSpeeds[i] != est {
				fresh = false
				break
			}
		}
	}
	if fresh {
		return sc.orderSorted
	}
	sc.orderFleet = ctx.Cluster()
	sc.orderSpeeds = sc.orderSpeeds[:0]
	sc.orderBuf = sc.orderBuf[:0]
	for _, srv := range servers {
		est, n := ctx.ObservedServerSpeed(srv.ID)
		if n == 0 {
			est = 1
		}
		sc.orderSpeeds = append(sc.orderSpeeds, est)
		sc.orderBuf = append(sc.orderBuf, serverSpeed{srv: srv, speed: est})
	}
	sort.SliceStable(sc.orderBuf, func(a, b int) bool {
		sa, sb := sc.orderBuf[a].speed, sc.orderBuf[b].speed
		if sa != sb {
			return sa > sb
		}
		return sc.orderBuf[a].srv.ID < sc.orderBuf[b].srv.ID
	})
	sc.orderSorted = sc.orderSorted[:0]
	for _, e := range sc.orderBuf {
		sc.orderSorted = append(sc.orderSorted, e.srv)
	}
	return sc.orderSorted
}

// clonePasses launches up to maxClones extra copies per running task in
// priority order, keeping total clone-held resources under δ × capacity.
// Pass p tops tasks holding exactly p copies up to p+1, so a task that
// pass p turns down (no fit, no budget) is out for the rest of the
// call. Only pass 1 therefore walks the jobs, reading each running
// task's live-copy count off its JobState; it grants what it can and
// leaves, in walk order, the tasks a later pass can still serve — the
// ones it just topped up and the ones that already hold more than one
// copy. Passes 2..maxClones are sweeps of that list. Grants are appended
// to out, the call's placements so far.
func (s *Scheduler) clonePasses(
	ctx sched.Context,
	ft *sched.FitTracker,
	sc *scratch,
	maxClass int,
	out []sched.Placement,
) []sched.Placement {
	total := ctx.Cluster().Total()
	budget := resources.Vec(
		int64(s.delta*float64(total.CPUMilli)),
		int64(s.delta*float64(total.MemMiB)),
	)
	cloneUse := ctx.CloneUsage()
	cands := sc.cloneCands[:0]

	// grant places one more copy of the task if the δ budget and the
	// fleet allow it.
	grant := func(ref workload.TaskRef, demand resources.Vector) bool {
		next := cloneUse.Add(demand)
		if !next.Fits(budget) {
			return false // δ budget exhausted for this shape
		}
		srv, ok := ft.BestFit(demand)
		if !ok {
			return false
		}
		ft.Place(srv, demand)
		cloneUse = next
		out = append(out, sched.Placement{Ref: ref, Server: srv})
		return true
	}

	for l := 1; l <= maxClass; l++ {
		for _, m := range sc.classes[l] {
			// §4.1/§5: clones are for jobs whose new tasks are all
			// placed; a job with pending tasks still waits for
			// capacity, so racing clones ahead of them would harm
			// the very jobs the pass is meant to help.
			if !m.cur.Exhausted() {
				continue
			}
			js := m.js
			for _, k := range m.cur.Phases() {
				if js.RunningCount(k) == 0 {
					continue
				}
				demand := js.Job.Phases[k].Demand
				if !cloneUse.Add(demand).Fits(budget) {
					// The budget only tightens within a call, so no
					// task of this shape can clone anymore.
					continue
				}
				for _, lidx := range js.RunningTasksView(k) {
					copies := js.LiveCopies(k, lidx)
					if copies < 1 || copies > s.maxClones {
						continue
					}
					ref := workload.TaskRef{Job: js.Job.ID, Phase: k, Index: lidx}
					if copies == 1 {
						if !grant(ref, demand) {
							continue
						}
						copies = 2
					}
					if copies <= s.maxClones {
						cands = append(cands, cloneCand{ref: ref, demand: demand, copies: copies})
					}
				}
			}
		}
	}
	for pass := 2; pass <= s.maxClones; pass++ {
		for i := range cands {
			if c := &cands[i]; c.copies == pass && grant(c.ref, c.demand) {
				c.copies++
			}
		}
	}
	sc.cloneCands = cands
	return out
}
