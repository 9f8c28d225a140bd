package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// gone marks a record whose job left ctx.Jobs(), until the next full
	// walk compacts it out of recs.
	gone bool
	// watched marks a record on its class's watch list or in
	// scratch.joined.
	watched bool
	// infoSeen is cur.JS.Version() as of the last evaluation of the
	// job's Algorithm 1 input, whose volume, time and dominant share
	// follow (its ID is the job's); see recompute.
	infoSeen               uint32
	volume, time, dominant float64
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

// running reports whether r's job held a running copy when r was last
// revalidated. Only a ready phase can have one, and the cursor's phases
// are the ready ones.
func (r *jobRec) running() bool {
	for _, k := range r.cur.Phases() {
		if r.cur.JS.RunningCount(k) > 0 {
			return true
		}
	}
	return false
}

// class is one priority class: the index over the heads of its members
// that have one, and its watched members in ctx.Jobs() order — the
// records whose job can move before the next arrival, which are also
// the only ones a redundancy pass can serve.
type class struct {
	heads headIndex
	watch []*jobRec
}

// scratch is the state Schedule keeps between calls. A Scheduler is
// confined to one goroutine (like the engine that owns it), so plain
// buffers suffice.
type scratch struct {
	ft *sched.FitTracker

	// recs mirrors ctx.Jobs() as of the last sync, record for job, plus
	// the gone records of the jobs that finished since the last full
	// walk. classes[l] indexes and watches them by priority class (index
	// 0 unused), as of the last priority recompute. fresh is set while a
	// record has no class yet.
	recs     []*jobRec
	classes  []class
	maxClass int
	fresh    bool
	// free recycles the records of finished jobs; departed lists the
	// gone records, which the next full walk recycles.
	free     []*jobRec
	departed []*jobRec

	// The watch list is the records whose job held a running copy when
	// last revalidated, kept per class, plus the ones a Schedule call
	// advanced: those wait in joined until the next sync merges them
	// in. spare is the other half of the merge's double buffer.
	joined, spare []*jobRec

	infos []JobInfo
	// infoTotal is the cluster total the records' cached infos were
	// evaluated against.
	infoTotal resources.Vector
	prio      prioScratch
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

	// copies is the redundancy walk, with its phase list; drained is
	// the cursors Schedule hands it.
	copies  sched.CopyWalk
	drained []*sched.JobCursor

	// out backs the slice Schedule returns, which the Scheduler contract
	// lets it overwrite on the next call.
	out []sched.Placement

	// stats counts the work outside the head indexes: see StatsOf.
	stats Stats
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
// whose job moved since its cursor was last reset. Between two decision
// points a job moves only through its running copies, apart from
// arrivals and the placements of this scheduler (the sched.Context.Jobs
// contract), so without arrivals (full unset) the watch list holds every
// record that can have moved, and the watch pass alone is exact. The
// full walk runs when jobs arrived, when a record has no class yet, or
// when the watch pass leaves a different number of records than
// ctx.Jobs() has jobs.
func (sc *scratch) sync(jobs []*workload.JobState, full bool) {
	if !full && !sc.fresh {
		sc.syncWatch()
		if len(jobs) == len(sc.recs)-len(sc.departed) {
			return
		}
	}
	sc.walk(jobs)
}

// syncWatch merges the records that joined the watch list into their
// classes' lists and walks them: a record whose stamp moved is dropped
// if its job finished and revalidated otherwise, and it leaves the list
// once its job holds no running copy. An unmoved record costs one stamp
// read. Classes are independent, so only the order within one matters.
func (sc *scratch) syncWatch() {
	slices.SortFunc(sc.joined, func(a, b *jobRec) int {
		return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.seq, b.seq))
	})
	joined := sc.joined
	for l := range sc.classes {
		c := &sc.classes[l]
		n := 0
		for n < len(joined) && joined[n].class == int32(l) {
			n++
		}
		watch, add := c.watch, joined[:n]
		joined = joined[n:]
		if len(watch)+len(add) == 0 {
			continue
		}
		kept := sc.spare[:0]
		for len(watch) > 0 || len(add) > 0 {
			var r *jobRec
			if len(add) == 0 || len(watch) > 0 && watch[0].seq < add[0].seq {
				r, watch = watch[0], watch[1:]
			} else {
				r, add = add[0], add[1:]
			}
			sc.stats.Watched++
			if js := r.cur.JS; r.seen != js.Version() {
				if js.Done() {
					sc.drop(r)
					continue
				}
				if sc.revalidate(r); !r.running() {
					r.watched = false
					continue
				}
			}
			kept = append(kept, r)
		}
		clear(c.watch)
		sc.spare, c.watch = c.watch[:0], kept
	}
	clear(sc.joined)
	sc.joined = sc.joined[:0]
}

// walk pairs every job in ctx.Jobs() with its record, revalidates the
// moved ones and rebuilds the watch lists. It relies on the Jobs()
// contract — a snapshot is the previous one minus finished jobs plus a
// suffix of arrivals — so one forward walk pairs jobs with records: a
// record the walk passes over has left, a job past the last record is
// new. (A context that reorders survivors is still mirrored correctly:
// the overtaken records are dropped and built anew.) It is also where
// gone records are recycled.
func (sc *scratch) walk(jobs []*workload.JobState) {
	sc.stats.Walks++
	for l := range sc.classes {
		c := &sc.classes[l]
		clear(c.watch)
		c.watch = c.watch[:0]
	}
	clear(sc.joined)
	sc.joined = sc.joined[:0]
	// old is the mirror as it stood: recs[:w] is the new one, written
	// in place behind the read position j and appended past old's end.
	old, recs := sc.recs, sc.recs
	j, w := 0, 0
	for _, js := range jobs {
		for j < len(old) && (old[j].gone || old[j].cur.JS != js) {
			sc.stats.Walked++
			sc.drop(old[j])
			j++
		}
		sc.stats.Walked++
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
			r.watched = r.running()
		}
		// A record with no class yet is watched from the regroup.
		if r.watched && r.class != 0 {
			c := &sc.classes[r.class]
			c.watch = append(c.watch, r)
		}
	}
	for ; j < len(old); j++ {
		sc.stats.Walked++
		sc.drop(old[j])
	}
	clear(recs[w:])
	sc.recs = recs[:w]

	for i, r := range sc.departed {
		// Keep the cursor: its phase buffer is the record's one allocation.
		*r = jobRec{cur: r.cur}
		sc.free = append(sc.free, r)
		sc.departed[i] = nil
	}
	sc.departed = sc.departed[:0]
}

// newRec returns a record for a job sync has not seen before, stale so
// that sync validates it and recompute evaluates its info.
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
	r.infoSeen = r.seen
	sc.fresh = true
	return r
}

// drop takes a record whose job left ctx.Jobs() out of its class's head
// index and queues it for the full walk to recycle; the caller takes it
// off the watch list. The record lets go of its job at once: watch
// passes can drop records for many calls before the next full walk, and
// a departed record that still held its job would keep the finished
// job, and the engine state it points to, reachable until then. A
// record already gone stays as it is.
func (sc *scratch) drop(r *jobRec) {
	if r.gone {
		return
	}
	if r.class != 0 {
		sc.classes[r.class].heads.remove(r)
	}
	r.gone, r.watched, r.cur.JS = true, false, nil
	sc.departed = append(sc.departed, r)
}

// revalidate re-reads a record's head from its job.
func (sc *scratch) revalidate(r *jobRec) {
	sc.stats.Revalidations++
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

// regroup rebuilds every head index and watch list from the priorities
// just computed over the jobs recs mirrors: prios[i] is the class of
// recs[i].
func (sc *scratch) regroup(prios []int32) {
	for l := range sc.classes {
		c := &sc.classes[l]
		clear(c.watch)
		c.watch = c.watch[:0]
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
		if r.watched {
			c.watch = append(c.watch, r)
		}
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
// [0, workload.MaxCopies-1].
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
	if s.maxClones < 0 || s.maxClones >= workload.MaxCopies {
		return nil, fmt.Errorf("core: clone limit %d out of [0, %d]", s.maxClones, workload.MaxCopies-1)
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
	s.scratch.sync(ctx.Jobs(), true)
	s.recompute(ctx)
	s.pendingArrivals = 0
}

// recompute reruns Algorithm 1 over ctx.Jobs(), which the records must
// already mirror, and regroups them by the new priorities.
//
// A job's info is evaluated again only when its stamp or the cluster
// total moved since the record last evaluated it. JobInfoOf reads the
// job's done counts and nothing else that changes, and those move only
// through MarkDone, which advances the stamp. Under estimation the
// effective durations follow PhaseStats, which move without a stamp, so
// every job is evaluated on every recompute.
func (s *Scheduler) recompute(ctx sched.Context) {
	sc := &s.scratch
	sc.stats.Recomputes++
	total := ctx.Cluster().Total()
	cached := s.estimator == nil && total == sc.infoTotal
	sc.infoTotal = total
	infos := sc.infos[:0]
	floor := resources.Vec(math.MaxInt64, math.MaxInt64)
	for _, r := range sc.recs {
		js := r.cur.JS
		if v := js.Version(); !cached || r.infoSeen != v {
			sc.stats.Infos++
			info := s.jobInfo(ctx, js, total)
			r.volume, r.time, r.dominant, r.infoSeen = info.Volume, info.Time, info.Dominant, v
		}
		infos = append(infos, JobInfo{ID: js.Job.ID, Volume: r.volume, Time: r.time, Dominant: r.dominant})
		for k := range js.Job.Phases {
			floor = floor.Min(js.Job.Phases[k].Demand)
		}
	}
	sc.infos, sc.floor = infos, floor
	sc.regroup(prioritiesInto(infos, &sc.prio))
}

func (s *Scheduler) jobInfo(ctx sched.Context, js *workload.JobState, total resources.Vector) JobInfo {
	eff := func(k workload.PhaseID) float64 {
		return js.Job.Phases[k].EffectiveDuration(s.r)
	}
	if s.estimator != nil {
		eff = func(k workload.PhaseID) float64 {
			est := s.estimatePhase(ctx, js, k)
			return est.Mean + s.r*est.SD
		}
	}
	return JobInfoOf(js, total, eff)
}

// JobInfoOf builds Algorithm 1's input for one job: its updated volume
// (Eq. 16) and remaining processing time (Eq. 17) under the effective
// duration eff(k) of each phase k, and the largest dominant share among
// its phases with tasks left.
func JobInfoOf(js *workload.JobState, total resources.Vector, eff func(workload.PhaseID) float64) JobInfo {
	maxD := 0.0
	for k := range js.Job.Phases {
		if js.RemainingTasks(workload.PhaseID(k)) == 0 {
			continue
		}
		if d := js.Job.Phases[k].DominantShare(total); d > maxD {
			maxD = d
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
	sc.stats.Calls++
	sc.sync(jobs, s.pendingArrivals > 0)
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
				if !r.watched {
					r.watched = true
					sc.joined = append(sc.joined, r)
				}
				if sc.rehead(r); r.drained() {
					heads--
				}
			}
		}
	}

	// Redundancy: clone passes (Step 16) by default; LATE-style backups
	// when speculation is selected. Both run only after the new-task
	// pass, within the δ budget, and only for jobs whose new tasks are
	// all placed (§4.1/§5): a job with pending tasks still waits for
	// capacity, so racing copies ahead of them would harm the very jobs
	// the pass is meant to help. The watch lists hold, in class order,
	// exactly the records whose job holds a running copy (this call's
	// placements are not applied yet).
	if (s.speculate || s.maxClones > 0) && s.redundancyRoom(ctx, ft) {
		drained := sc.drained[:0]
		for l := 1; l <= sc.maxClass; l++ {
			for _, r := range sc.classes[l].watch {
				if r.drained() {
					drained = append(drained, &r.cur)
				}
			}
		}
		rules := sched.CopyRules{Copies: 1 + s.maxClones, Delta: s.delta}
		if s.speculate {
			// Detection is the Capacity baseline's LATE trigger, but
			// placement follows DollyMP's priorities.
			rules = sched.CopyRules{Copies: 2, Delta: s.delta, Due: func(ref workload.TaskRef) bool {
				return sched.Straggling(ctx, ref, s.specThreshold, s.specMinSample)
			}}
		}
		out = sc.copies.Grant(ctx, ft, drained, rules, nil, out)
		sc.drained = drained
	}
	sc.out = out
	return out
}

// redundancyRoom opens a redundancy pass (cloning or speculation) and
// reports whether the call can grant a copy at all. Every demand of an
// active job is ≥ scratch.floor, the budget check and BestFit's miss are
// both monotone in the demand, and within a call cloneUse only grows and
// free capacity only shrinks — so when the floor is over budget or fits
// no server, every grant of every pass would be refused and the walk
// over the watch lists can be skipped. A δ of 0 admits no copy: every
// demand is non-zero.
func (s *Scheduler) redundancyRoom(ctx sched.Context, ft *sched.FitTracker) bool {
	st := &s.scratch.stats
	st.RedundancyOpened++
	budget := sched.CloneBudget(ctx.Cluster().Total(), s.delta)
	if s.delta == 0 || !ctx.CloneUsage().Add(s.scratch.floor).Fits(budget) {
		st.ClosedOnBudget++
		return false
	}
	if _, ok := ft.BestFit(s.scratch.floor); !ok {
		st.ClosedOnFit++
		return false
	}
	return true
}

// serverOrder returns the fleet in placement-visit order: by ID, or —
// with straggler avoidance on — fastest learned speed first so work
// lands on healthy machines before straggler-prone ones. The sorted
// order is cached between calls and invalidated by comparing the
// learned speeds position by position, so a quiet fleet costs a linear
// scan instead of a sort.
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
