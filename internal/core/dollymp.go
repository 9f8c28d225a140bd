package core

import (
	"fmt"
	"math"
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

// jobRec is what the scheduler keeps about one active job between
// Schedule calls: its class, its task cursor, and where the class's
// head index holds its head (its next schedulable task), if it has one.
type jobRec struct {
	// seen is cur.JS.Version() as of the cursor's last Reset, unless the
	// record was invalidated since. A record is revalidated whenever
	// seen differs from the job's stamp.
	seen uint32
	// class is the priority class; 0 until a recompute has seen the job.
	class int32
	// where locates the head in the class's index: i+1 tree entry i,
	// -(i+1) overflow entry i, 0 while the job has none (see drained).
	where int32
	// seq is the job's position in ctx.Jobs() as of the last regroup:
	// the tie-break among equal scores.
	seq uint32
	// gone marks a record whose job left ctx.Jobs(), until sync has
	// compacted it out of its class's member list.
	gone bool
	// cur is the task cursor; cur.JS is the record's job.
	cur sched.JobCursor
}

// invalidate makes the next sync re-read the record from its job
// whether or not the job moves: seen takes a value Version will not
// take again. New records start so, and a call that advances a cursor
// leaves its record so — the caller may not apply that call's
// placements, in which case the job stays put and the cursor is ahead
// of it.
func (r *jobRec) invalidate() { r.seen = r.cur.JS.Version() - 1 }

// drained reports whether a classified job has no schedulable task
// left: the clone passes serve drained jobs only.
func (r *jobRec) drained() bool { return r.where == 0 }

// class is one priority class: every member in ctx.Jobs() order (the
// clone passes need the drained ones too) and the index over the heads
// of those that have one.
type class struct {
	members []*jobRec
	heads   headIndex
	// dropped is set while members holds a gone record.
	dropped bool
}

// scratch is the state Schedule keeps between calls. A Scheduler is
// confined to one goroutine (like the engine that owns it), so plain
// buffers suffice.
type scratch struct {
	ft *sched.FitTracker

	// recs mirrors ctx.Jobs() as of the last sync, record for job.
	// classes[l] groups them by priority class (index 0 unused), as of
	// the last priority recompute. fresh is set while a record has no
	// class yet.
	recs     []*jobRec
	classes  []class
	maxClass int
	fresh    bool
	// free recycles the records of finished jobs; departed is sync's
	// list of the records it dropped.
	free     []*jobRec
	departed []*jobRec

	infos []JobInfo
	prio  prioScratch
	// floor is the component-wise minimum demand over every phase of
	// the jobs the last recompute saw: no task of an active job asks for
	// less, in either dimension. Jobs that have left since only make it
	// lower than it need be.
	floor resources.Vector

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

// sync brings recs in line with ctx.Jobs() and revalidates every record
// whose job moved since its cursor was last reset. It relies on the
// Jobs() contract — a snapshot is the previous one minus finished jobs
// plus a suffix of arrivals — so one forward walk pairs jobs with
// records: a record the walk passes over has left, a job past the last
// record is new. (A context that reorders survivors is still mirrored
// correctly: the overtaken records are dropped and built anew.)
func (sc *scratch) sync(jobs []*workload.JobState) {
	// old is the mirror as it stood: recs[:w] is the new one, written
	// in place behind the read position j and appended past old's end.
	old, recs := sc.recs, sc.recs
	j, w := 0, 0
	for _, js := range jobs {
		for j < len(old) && old[j].cur.JS != js {
			sc.drop(old[j])
			j++
		}
		var r *jobRec
		if j < len(old) {
			r = old[j]
			j++
		} else {
			r = sc.newRec(js)
		}
		if w < len(recs) {
			recs[w] = r
		} else {
			recs = append(recs, r)
		}
		w++
		if r.seen != js.Version() {
			sc.revalidate(r)
		}
	}
	for ; j < len(old); j++ {
		sc.drop(old[j])
	}
	clear(recs[w:])
	sc.recs = recs[:w]

	if len(sc.departed) == 0 {
		return
	}
	for l := range sc.classes {
		c := &sc.classes[l]
		if !c.dropped {
			continue
		}
		kept := c.members[:0]
		for _, r := range c.members {
			if !r.gone {
				kept = append(kept, r)
			}
		}
		clear(c.members[len(kept):])
		c.members, c.dropped = kept, false
	}
	for i, r := range sc.departed {
		// Keep the cursor: its phase buffer is the record's one allocation.
		r.cur.JS = nil
		*r = jobRec{cur: r.cur}
		sc.free = append(sc.free, r)
		sc.departed[i] = nil
	}
	sc.departed = sc.departed[:0]
}

// newRec returns a record for a job sync has not seen before, stale so
// that sync validates it.
func (sc *scratch) newRec(js *workload.JobState) *jobRec {
	var r *jobRec
	if n := len(sc.free); n > 0 {
		r, sc.free[n-1] = sc.free[n-1], nil
		sc.free = sc.free[:n-1]
	} else {
		r = new(jobRec)
	}
	r.cur.JS = js
	r.invalidate()
	sc.fresh = true
	return r
}

// drop takes a record whose job left ctx.Jobs() out of its class's head
// index and queues it for sync's compaction.
func (sc *scratch) drop(r *jobRec) {
	if r.class != 0 {
		c := &sc.classes[r.class]
		c.heads.remove(r)
		c.dropped = true
	}
	r.gone = true
	sc.departed = append(sc.departed, r)
}

// revalidate re-reads a record's head from its job.
func (sc *scratch) revalidate(r *jobRec) {
	r.seen = r.cur.JS.Version()
	r.cur.Reset(r.cur.JS)
	sc.rehead(r)
}

// rehead puts the class's index in step with r's cursor. A record no
// recompute has classified yet is indexed when one does.
func (sc *scratch) rehead(r *jobRec) {
	if r.class != 0 {
		pt, ok := r.cur.Peek()
		sc.classes[r.class].heads.set(r, pt.Demand, ok)
	}
}

// regroup rebuilds class membership and every head index from the
// priorities just computed over the jobs recs mirrors: prios[i] is the
// class of recs[i].
func (sc *scratch) regroup(prios []int32) {
	for l := range sc.classes {
		c := &sc.classes[l]
		clear(c.members)
		c.members = c.members[:0]
		c.heads.reset()
	}
	sc.maxClass = 0
	for i, r := range sc.recs {
		p := int(prios[i])
		r.class, r.seq, r.where = prios[i], uint32(i), 0
		if p > sc.maxClass {
			sc.maxClass = p
			for len(sc.classes) <= p {
				sc.classes = append(sc.classes, class{})
			}
		}
		c := &sc.classes[p]
		c.members = append(c.members, r)
		if pt, ok := r.cur.Peek(); ok {
			c.heads.stage(r, pt.Demand)
		}
	}
	for l := range sc.classes {
		sc.classes[l].heads.build()
	}
	sc.fresh = false
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
	s.scratch.sync(ctx.Jobs())
	s.recompute(ctx)
	s.pendingArrivals = 0
}

// recompute reruns Algorithm 1 over ctx.Jobs(), which the records must
// already mirror, and regroups them by the new priorities.
func (s *Scheduler) recompute(ctx sched.Context) {
	total := ctx.Cluster().Total()
	jobs := ctx.Jobs()
	infos := s.scratch.infos[:0]
	floor := resources.Vec(math.MaxInt64, math.MaxInt64)
	for _, js := range jobs {
		infos = append(infos, s.jobInfo(ctx, js, total))
		for k := range js.Job.Phases {
			floor = floor.Min(js.Job.Phases[k].Demand)
		}
	}
	s.scratch.infos, s.scratch.floor = infos, floor
	s.scratch.regroup(prioritiesInto(infos, &s.scratch.prio))
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
// straightforward formulation that regroups the jobs and scans every
// class member on every call; the records kept between calls and the
// head indexes only remove provably fruitless work (pinned by the
// cross-seed equivalence property test).
func (s *Scheduler) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	sc := &s.scratch
	sc.sync(jobs)
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
	if sc.fresh {
		s.recompute(ctx)
	}

	norm := resources.NormOf(ctx.Cluster().Total())
	ft := sc.fitTracker(ctx.Cluster())
	heads := 0
	for l := 1; l <= sc.maxClass; l++ {
		heads += sc.classes[l].heads.live
	}
	out := sc.out[:0]

	// New-task pass (Steps 6–15): per server, classes in ascending
	// order; within a class pick the task maximizing the inner product
	// between demand and the server's remaining capacity.
	for _, srv := range s.serverOrder(ctx) {
		if heads == 0 {
			break // every pending task placed; servers differ no more
		}
		free := ft.Free(srv.ID)
		if free.IsZero() {
			continue
		}
		for l := 1; l <= sc.maxClass; l++ {
			idx := &sc.classes[l].heads
			for r := idx.best(free, norm); r != nil; r = idx.best(free, norm) {
				pt, _ := r.cur.Peek()
				ft.Place(srv.ID, pt.Demand)
				free = free.Sub(pt.Demand)
				out = append(out, sched.Placement{Ref: pt.Ref, Server: srv.ID})
				r.cur.Advance()
				r.invalidate()
				if sc.rehead(r); r.drained() {
					heads--
				}
			}
		}
	}

	// Redundancy: clone passes (Step 16) by default; LATE-style backups
	// when speculation is selected. Both run only after the new-task
	// pass and both respect the δ budget.
	switch {
	case s.speculate:
		out = s.speculationPass(ctx, ft, sc, out)
	case s.maxClones > 0:
		out = s.clonePasses(ctx, ft, sc, out)
	}
	sc.out = out
	return out
}

// redundancyRoom opens a redundancy pass (cloning or speculation): it
// returns the δ budget, what clone copies already hold of it, and
// whether the call can grant a copy at all. Every demand of an active
// job is ≥ scratch.floor, the budget check and BestFit's miss are both
// monotone in the demand, and within a call cloneUse only grows and
// free capacity only shrinks — so when the floor is over budget or fits
// no server, every grant of every pass would be refused and the walk
// over the members can be skipped.
func (s *Scheduler) redundancyRoom(ctx sched.Context, ft *sched.FitTracker) (budget, cloneUse resources.Vector, ok bool) {
	total := ctx.Cluster().Total()
	budget = resources.Vec(
		int64(s.delta*float64(total.CPUMilli)),
		int64(s.delta*float64(total.MemMiB)),
	)
	cloneUse = ctx.CloneUsage()
	if !cloneUse.Add(s.scratch.floor).Fits(budget) {
		return budget, cloneUse, false
	}
	_, ok = ft.BestFit(s.scratch.floor)
	return budget, cloneUse, ok
}

// speculationPass launches one backup copy per detected straggler, in
// priority-class order, within the δ budget. Detection mirrors the
// Capacity baseline's LATE rule but placement follows DollyMP's
// priorities instead of best effort. Backups are appended to out.
func (s *Scheduler) speculationPass(
	ctx sched.Context,
	ft *sched.FitTracker,
	sc *scratch,
	out []sched.Placement,
) []sched.Placement {
	budget, cloneUse, ok := s.redundancyRoom(ctx, ft)
	if !ok {
		return out
	}
	now := ctx.Now()

	for l := 1; l <= sc.maxClass; l++ {
		for _, r := range sc.classes[l].members {
			if !r.drained() {
				continue // pending work first, as with cloning
			}
			js := r.cur.JS
			for _, k := range r.cur.Phases() {
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
	out []sched.Placement,
) []sched.Placement {
	budget, cloneUse, ok := s.redundancyRoom(ctx, ft)
	if !ok {
		return out
	}
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

	for l := 1; l <= sc.maxClass; l++ {
		for _, r := range sc.classes[l].members {
			// §4.1/§5: clones are for jobs whose new tasks are all
			// placed; a job with pending tasks still waits for
			// capacity, so racing clones ahead of them would harm
			// the very jobs the pass is meant to help.
			if !r.drained() {
				continue
			}
			js := r.cur.JS
			for _, k := range r.cur.Phases() {
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
