// Package sim is the time-slotted cluster simulator the evaluation runs
// on: the substitute for the paper's Hadoop YARN testbed. It advances an
// event clock over job arrivals and copy completions, lets the configured
// scheduler place task copies (clones included) at every decision point,
// samples task durations from the per-phase Pareto straggler model scaled
// by per-server speed, and implements the cloning semantics of §3: all
// copies of a task run concurrently, the first to finish completes the
// task, and the remaining copies are killed and their resources freed.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// Config configures one simulation run.
type Config struct {
	// Cluster is the fleet; the engine owns and mutates it (Reset is
	// called on Run).
	Cluster *cluster.Cluster
	// Jobs is the workload; each job must validate.
	Jobs []*workload.Job
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// Seed drives all stochastic draws; same seed, same run.
	Seed uint64
	// MaxSlots aborts runaway simulations (default 10_000_000).
	MaxSlots int64
	// Deterministic disables duration noise: every copy runs exactly
	// ceil(mean/speed) slots. Used by the analytic examples and tests.
	Deterministic bool
	// MaxCopiesPerTask caps concurrent copies of one task (original
	// included). Default 4 (DollyMP's two-clone rule plus the
	// DollyMP³ ablation).
	MaxCopiesPerTask int
	// Paranoid re-verifies ledger invariants after every event.
	Paranoid bool
	// TransferPenalty adds this many slots to a copy that must fetch
	// its input remotely: a copy off the rack holding the task's input
	// data, or a downstream clone contending for a shared upstream
	// output (see DelayAssignment). Zero disables all transfer costs.
	TransferPenalty int64
	// DelayAssignment enables the §5.2 intermediate-data mechanism:
	// when upstream tasks also ran cloned copies, their outputs are
	// assigned evenly to downstream clones, so those clones read
	// distinct local outputs and avoid the transfer penalty. Without
	// it every downstream clone shares the single upstream output and
	// pays the penalty.
	DelayAssignment bool
	// Events injects fleet perturbations (slowdowns, failures) at
	// scheduled slots.
	Events []Event
	// RecordTrace captures every placement, completion and kill in
	// Result.Trace so the run can be certified against the model's
	// constraints (internal/verify) or inspected offline.
	RecordTrace bool
	// RecordTimeline samples cluster state (active jobs, running
	// copies, utilization) at every clock advance into Result.Timeline.
	RecordTimeline bool
	// Online relaxes the non-empty-workload requirement and enables
	// InjectJob, for callers that drive the engine incrementally with
	// Start/Step while jobs stream in (see online.go). Batch runs via
	// Run are unaffected.
	Online bool
	// CompactJobs folds each finished job into Result.Digest (exact
	// count/sum/min/max, log-bucket flowtime and running-time
	// histograms) instead of appending a JobMetrics record to
	// Result.Jobs, so a multi-million-job replay's Result stays a few
	// hundred bytes instead of growing O(jobs). Per-job callbacks
	// (OnJobComplete) still fire with the full record; only retention
	// changes. Figure-level analyses that need per-job series (ECDFs,
	// per-job ratios) must leave this off.
	CompactJobs bool
	// OnJobStart, if set, is called when a job's first copy is placed,
	// with the job ID and the launch slot. Called from the engine's
	// goroutine, synchronously inside Step.
	OnJobStart func(workload.JobID, int64)
	// OnJobComplete, if set, is called when a job finishes, with its
	// final metrics (flowtime stamped). Called from the engine's
	// goroutine, synchronously inside Step.
	OnJobComplete func(JobMetrics)
}

func (c *Config) defaults() {
	if c.MaxSlots == 0 {
		c.MaxSlots = 10_000_000
	}
	if c.MaxCopiesPerTask == 0 {
		c.MaxCopiesPerTask = 4
	}
}

// taskCopy is one running copy of a task.
type taskCopy struct {
	ref workload.TaskRef
	// job is the owning job's record; next links the task's live copies
	// in placement order (see liveJob.copies). Both are cleared when the
	// copy is killed: it may sit in the running heap long after its job
	// is released, and must not keep the job's state reachable.
	job    *liveJob
	next   *taskCopy
	server cluster.ServerID
	demand resources.Vector
	start  int64
	finish int64
	// penalty is the transfer-penalty share of the copy's duration:
	// slots spent fetching remote input, not computing. Speed estimation
	// must exclude it — it says nothing about the server.
	penalty int64
	clone   bool
	killed  bool
}

// copyHeap is a min-heap of running copies ordered by finish slot.
type copyHeap []*taskCopy

func (h copyHeap) Len() int            { return len(h) }
func (h copyHeap) Less(i, j int) bool  { return h[i].finish < h[j].finish }
func (h copyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *copyHeap) Push(x interface{}) { *h = append(*h, x.(*taskCopy)) }
func (h *copyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

type phaseKey struct {
	job   workload.JobID
	phase workload.PhaseID
}

// liveJob is the engine's record of one unfinished job: the
// scheduler-visible state plus the copy table. copies[k][l] heads the
// list of task (k, l)'s live copies in placement order — the original
// first, clones after — linked through taskCopy.next; the matching
// count is JobState.LiveCopies. The table is allocated at the job's
// first placement and goes away with the record in releaseJob, so a
// queued job carries none.
type liveJob struct {
	*workload.JobState
	copies [][]*taskCopy
}

func newLiveJob(j *workload.Job) *liveJob {
	return &liveJob{JobState: workload.NewJobState(j)}
}

// kill marks a copy dead, detaches it from its job, and returns the
// copy that followed it in the task's list.
func (c *taskCopy) kill() *taskCopy {
	next := c.next
	c.killed, c.job, c.next = true, nil, nil
	return next
}

// link appends a copy to its task's list.
func (lj *liveJob) link(c *taskCopy) {
	if lj.copies == nil {
		lj.copies = make([][]*taskCopy, len(lj.Job.Phases))
		for k := range lj.copies {
			lj.copies[k] = make([]*taskCopy, lj.Job.Phases[k].Tasks)
		}
	}
	at := &lj.copies[c.ref.Phase][c.ref.Index]
	for *at != nil {
		at = &(*at).next
	}
	*at = c
}

// Engine runs one simulation. Create with New, run with Run. An Engine is
// single-use and confined to one goroutine; run independent simulations
// in parallel by giving each goroutine its own Engine.
type Engine struct {
	cfg    Config
	clock  int64
	states map[workload.JobID]*liveJob
	// done is the paged bitmap of completed-and-released job IDs: the
	// duplicate-ID guard that replaced per-job nil markers in states
	// (which pinned a map entry per job ever run).
	done idSet
	// arrivals holds not-yet-arrived jobs as an indexed min-heap keyed
	// (arrival, ID); popped entries are released (see arrivals.go).
	arrivals arrivalQueue
	active   []*workload.JobState // arrived, unfinished

	running copyHeap
	// liveCopies counts the copies that are placed and not killed.
	liveCopies int
	// copyFree recycles taskCopy objects between placements — the
	// per-event allocation the profiler flags on the drain hot path. A
	// copy returns to the list only once it is out of both its job's
	// copy table and the running heap.
	copyFree   []*taskCopy
	rng        *stats.RNG
	dists      map[phaseKey]stats.Pareto
	observed   map[phaseKey]*stats.Summary
	outputRack map[phaseKey]map[int]int // rack histogram of winning copies
	cloneUse   resources.Vector
	alloc      map[workload.JobID]resources.Vector // live per-job allocation

	events    []Event
	nextEvent int

	// speedEst is the per-server online speed estimate (EWMA of
	// declared-mean / observed-duration over winning copies).
	speedEst []speedEstimate
	// rackCount is 1 + the highest rack index in the fleet.
	rackCount int
	// copiesPerTask records, per phase, how many concurrent copies each
	// completed task ran — the upstream-output multiplicity delay
	// assignment distributes.
	copiesPerTask map[phaseKey]*stats.Summary

	res        Result
	utilCPU    float64 // ∫ used dt, for average utilization
	utilMem    float64
	lastSample int64
	started    bool
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	cfg.defaults()
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("sim: nil cluster")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	if len(cfg.Jobs) == 0 && !cfg.Online {
		return nil, fmt.Errorf("sim: no jobs")
	}
	seen := make(map[workload.JobID]bool, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if j.Arrival < 0 {
			return nil, fmt.Errorf("sim: job %d has negative arrival", j.ID)
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("sim: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
	}
	e := &Engine{
		cfg:        cfg,
		states:     make(map[workload.JobID]*liveJob, len(cfg.Jobs)),
		rng:        stats.NewRNG(cfg.Seed),
		dists:      make(map[phaseKey]stats.Pareto),
		observed:   make(map[phaseKey]*stats.Summary),
		outputRack: make(map[phaseKey]map[int]int),
		alloc:      make(map[workload.JobID]resources.Vector, len(cfg.Jobs)),

		copiesPerTask: make(map[phaseKey]*stats.Summary),
	}
	if cfg.CompactJobs {
		e.res.Digest = &JobDigest{}
	}
	events, err := sortEvents(cfg.Events, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	e.events = events
	// Sized by highest ID, not fleet size: sparse-ID fleets index this
	// slice by server ID directly.
	e.speedEst = make([]speedEstimate, int(cfg.Cluster.MaxID())+1)
	for _, s := range cfg.Cluster.Servers() {
		if s.Rack+1 > e.rackCount {
			e.rackCount = s.Rack + 1
		}
	}
	pending := make([]*workload.JobState, 0, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		lj := newLiveJob(j)
		e.states[j.ID] = lj
		pending = append(pending, lj.JobState)
	}
	e.arrivals.Init(pending)
	return e, nil
}

// Run executes the simulation to completion and returns the collected
// metrics. The configured cluster is Reset before and left dirty after.
func (e *Engine) Run() (*Result, error) {
	e.Start()
	for {
		idle, err := e.Step()
		if err != nil {
			return nil, err
		}
		if idle {
			break // every job finished
		}
	}
	return e.Finalize(), nil
}

// Step executes one event iteration: advance the clock to the next
// arrival/completion/injection, process it, and let the scheduler place
// copies. It returns idle=true when no jobs are active and no arrivals
// are pending — the end of a batch run, or a quiescent point an online
// caller can resume from by injecting more jobs (see online.go).
func (e *Engine) Step() (idle bool, err error) {
	e.Start()
	if len(e.active) == 0 && e.arrivals.Len() == 0 {
		return true, nil
	}
	t, ok := e.nextEventTime()
	if !ok {
		return false, fmt.Errorf("sim: stuck at slot %d: %d active jobs, nothing running, no arrivals pending (a task demand may exceed every server)", e.clock, len(e.active))
	}
	if t > e.cfg.MaxSlots {
		return false, fmt.Errorf("sim: horizon %d slots exceeded (clock %d)", e.cfg.MaxSlots, t)
	}
	e.advanceTo(t)
	// Completions first: a copy finishing at t beats a failure at t.
	if err := e.processCompletions(); err != nil {
		return false, err
	}
	if err := e.processEvents(); err != nil {
		return false, err
	}
	arrived, err := e.processArrivals()
	if err != nil {
		return false, err
	}
	for _, js := range arrived {
		if aa, ok := e.cfg.Scheduler.(sched.ArrivalAware); ok {
			aa.OnJobArrival(e, js)
		}
	}
	if err := e.scheduleLoop(); err != nil {
		return false, err
	}
	if e.cfg.Paranoid {
		if err := e.checkInvariants(); err != nil {
			return false, err
		}
	}
	return len(e.active) == 0 && e.arrivals.Len() == 0, nil
}

// nextEventTime returns the next slot at which anything can happen.
func (e *Engine) nextEventTime() (int64, bool) {
	t := int64(-1)
	if js := e.arrivals.Peek(); js != nil {
		t = js.Job.Arrival
	}
	for len(e.running) > 0 && e.running[0].killed {
		e.freeCopy(heap.Pop(&e.running).(*taskCopy))
	}
	if len(e.running) > 0 {
		if t < 0 || e.running[0].finish < t {
			t = e.running[0].finish
		}
	}
	if inj, ok := e.nextInjectionTime(); ok {
		// Injections only matter while work remains, and the first two
		// candidates cover that; but a restore can unblock a stuck
		// fleet, so it must count as an event source too.
		if t < 0 || inj < t {
			t = inj
		}
	}
	if t < 0 {
		return 0, false
	}
	return t, true
}

func (e *Engine) advanceTo(t int64) {
	if t > e.clock {
		dt := float64(t - e.lastSample)
		used := e.cfg.Cluster.TotalUsed()
		e.utilCPU += float64(used.CPUMilli) * dt
		e.utilMem += float64(used.MemMiB) * dt
		e.lastSample = t
		if e.cfg.RecordTimeline {
			total := e.cfg.Cluster.Total()
			e.res.Timeline = append(e.res.Timeline, TimelinePoint{
				Slot:          e.clock, // state held over [clock, t)
				ActiveJobs:    len(e.active),
				RunningCopies: e.liveCopies,
				UtilizationCPU: float64(used.CPUMilli) /
					float64(total.CPUMilli),
				UtilizationMem: float64(used.MemMiB) /
					float64(total.MemMiB),
			})
		}
		e.clock = t
	}
}

func (e *Engine) processArrivals() ([]*workload.JobState, error) {
	var arrived []*workload.JobState
	for js := e.arrivals.Peek(); js != nil && js.Job.Arrival <= e.clock; js = e.arrivals.Peek() {
		e.arrivals.Pop()
		e.active = append(e.active, js)
		arrived = append(arrived, js)
	}
	return arrived, nil
}

// processCompletions handles every copy finishing at or before the clock.
func (e *Engine) processCompletions() error {
	for len(e.running) > 0 && e.running[0].finish <= e.clock {
		c := heap.Pop(&e.running).(*taskCopy)
		if c.killed {
			// A sibling the winner already killed: its last reference was
			// the heap slot, so it can be recycled.
			e.freeCopy(c)
			continue
		}
		if err := e.completeTask(c); err != nil {
			return err
		}
		// completeTask unlinked the task's copy list; the winner's last
		// reference was the heap slot popped above.
		e.freeCopy(c)
	}
	return nil
}

// newCopy takes a taskCopy from the free list, or allocates one.
func (e *Engine) newCopy() *taskCopy {
	if n := len(e.copyFree); n > 0 {
		c := e.copyFree[n-1]
		e.copyFree[n-1] = nil
		e.copyFree = e.copyFree[:n-1]
		return c
	}
	return &taskCopy{}
}

// freeCopy returns a copy to the free list. The caller guarantees no
// live reference remains (not in a copy table, not in the running heap).
func (e *Engine) freeCopy(c *taskCopy) {
	*c = taskCopy{}
	e.copyFree = append(e.copyFree, c)
}

// completeTask finishes the task whose first copy just completed: records
// the winner's duration, kills siblings, releases all resources, and
// updates phase/job state.
func (e *Engine) completeTask(winner *taskCopy) error {
	ref := winner.ref
	js := winner.job
	key := phaseKey{ref.Job, ref.Phase}

	obs := e.observed[key]
	if obs == nil {
		obs = &stats.Summary{}
		e.observed[key] = obs
	}
	obs.Add(float64(e.clock - winner.start))
	// Speed is compute time only: a cross-rack transfer penalty in the
	// denominator would make a healthy server look slow and steer
	// WithStragglerAvoidance away from it.
	if dur := e.clock - winner.start - winner.penalty; dur > 0 {
		e.speedEst[winner.server].observe(
			js.Job.Phases[ref.Phase].MeanDuration / float64(dur))
	}

	if e.outputRack[key] == nil {
		e.outputRack[key] = make(map[int]int)
	}
	e.outputRack[key][e.cfg.Cluster.Server(winner.server).Rack]++
	cps := e.copiesPerTask[key]
	if cps == nil {
		cps = &stats.Summary{}
		e.copiesPerTask[key] = cps
	}
	cps.Add(float64(js.LiveCopies(ref.Phase, ref.Index)))

	alloc := e.alloc[ref.Job]
	for c := js.copies[ref.Phase][ref.Index]; c != nil; {
		if err := e.cfg.Cluster.Release(c.server, c.demand); err != nil {
			return fmt.Errorf("sim: release %v: %w", c.ref, err)
		}
		js.Usage.AddFor(c.demand, e.clock-c.start)
		e.res.TotalUsage.AddFor(c.demand, e.clock-c.start)
		if c.clone {
			e.cloneUse = e.cloneUse.Sub(c.demand)
		}
		alloc = alloc.Sub(c.demand)
		e.liveCopies--
		if e.cfg.RecordTrace && c != winner {
			e.res.Trace = append(e.res.Trace, TraceEvent{
				Slot: e.clock, Kind: TraceKill, Ref: ref,
				Server: c.server, Demand: c.demand, Clone: c.clone,
			})
		}
		c = c.kill()
	}
	e.alloc[ref.Job] = alloc
	if e.cfg.RecordTrace {
		e.res.Trace = append(e.res.Trace, TraceEvent{
			Slot: e.clock, Kind: TraceComplete, Ref: ref,
			Server: winner.server, Demand: winner.demand, Clone: winner.clone,
		})
	}
	js.copies[ref.Phase][ref.Index] = nil

	if err := js.MarkDone(ref.Phase, ref.Index); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if js.Done() {
		js.Finish = e.clock
		e.removeActive(js.JobState)
		e.recordJob(js.JobState)
		e.releaseJob(js.JobState)
	}
	return nil
}

// releaseJob drops the engine's per-job bookkeeping once a job has
// completed and its metrics are recorded. Every per-phase map is keyed
// (job, phase) and only ever consulted while that job runs, so the
// entries are dead weight afterwards; a long-lived online engine must
// not retain them per job ever completed. The finished ID moves into
// the done bitmap (one bit, not a map tombstone) so InjectJob still
// rejects re-use of a finished job ID at any replay scale.
func (e *Engine) releaseJob(js *workload.JobState) {
	id := js.Job.ID
	delete(e.states, id)
	e.done.Add(id)
	delete(e.alloc, id)
	for k := range js.Job.Phases {
		key := phaseKey{id, workload.PhaseID(k)}
		delete(e.dists, key)
		delete(e.observed, key)
		delete(e.outputRack, key)
		delete(e.copiesPerTask, key)
	}
}

// removeActive deletes a job from e.active, keeping the order of the
// rest (the sched.Context.Jobs contract). The list is in delivery order,
// which is (arrival, ID) order — arrivals are appended in heap order and
// never before the clock — so the slot is found by binary search. The
// one way out of ID order within a slot is an online InjectJob of a
// smaller ID after that slot's arrivals were delivered; then the search
// lands elsewhere and a scan finds the job.
func (e *Engine) removeActive(js *workload.JobState) {
	i := sort.Search(len(e.active), func(i int) bool {
		a := e.active[i].Job
		return a.Arrival > js.Job.Arrival || (a.Arrival == js.Job.Arrival && a.ID >= js.Job.ID)
	})
	if i == len(e.active) || e.active[i] != js {
		for i = 0; e.active[i] != js; i++ {
		}
	}
	e.active = append(e.active[:i], e.active[i+1:]...)
}

// scheduleLoop calls the scheduler until it has no more placements,
// applying each batch against the ledger.
func (e *Engine) scheduleLoop() error {
	const maxRounds = 100000
	for round := 0; ; round++ {
		if round >= maxRounds {
			return fmt.Errorf("sim: scheduler %q did not converge after %d rounds at slot %d",
				e.cfg.Scheduler.Name(), maxRounds, e.clock)
		}
		start := time.Now()
		placements := e.cfg.Scheduler.Schedule(e)
		e.res.SchedWall += time.Since(start)
		e.res.SchedCalls++
		if len(placements) == 0 {
			return nil
		}
		for _, p := range placements {
			if err := e.applyPlacement(p); err != nil {
				return err
			}
		}
	}
}

// applyPlacement validates and launches one copy.
func (e *Engine) applyPlacement(p sched.Placement) error {
	js, ok := e.states[p.Ref.Job]
	if !ok {
		if e.done.Has(p.Ref.Job) {
			return fmt.Errorf("sim: placement for completed job %d", p.Ref.Job)
		}
		return fmt.Errorf("sim: placement for unknown job %d", p.Ref.Job)
	}
	if js.Job.Arrival > e.clock {
		return fmt.Errorf("sim: placement for job %d before its arrival", p.Ref.Job)
	}
	if int(p.Ref.Phase) < 0 || int(p.Ref.Phase) >= len(js.Job.Phases) {
		return fmt.Errorf("sim: placement for out-of-range phase %v", p.Ref)
	}
	ph := &js.Job.Phases[p.Ref.Phase]
	if p.Ref.Index < 0 || p.Ref.Index >= ph.Tasks {
		return fmt.Errorf("sim: placement for out-of-range task %v", p.Ref)
	}
	if js.Task(p.Ref.Phase, p.Ref.Index) == workload.TaskDone {
		return fmt.Errorf("sim: placement for completed task %v", p.Ref)
	}
	if !js.PhaseReady(p.Ref.Phase) {
		return fmt.Errorf("sim: placement for task %v whose parents have not finished", p.Ref)
	}
	existing := js.LiveCopies(p.Ref.Phase, p.Ref.Index)
	if existing >= e.cfg.MaxCopiesPerTask {
		return fmt.Errorf("sim: task %v already has %d copies (cap %d)", p.Ref, existing, e.cfg.MaxCopiesPerTask)
	}
	if !e.cfg.Cluster.Contains(p.Server) {
		return fmt.Errorf("sim: placement on unknown server %d", p.Server)
	}
	if err := e.cfg.Cluster.Allocate(p.Server, ph.Demand); err != nil {
		return fmt.Errorf("sim: placement %v: %w", p.Ref, err)
	}

	dur, penalty := e.sampleDuration(js.JobState, p.Ref, p.Server)
	c := e.newCopy()
	*c = taskCopy{
		ref:     p.Ref,
		job:     js,
		server:  p.Server,
		demand:  ph.Demand,
		start:   e.clock,
		finish:  e.clock + dur + penalty,
		penalty: penalty,
		clone:   existing > 0,
	}
	js.link(c)
	e.liveCopies++
	heap.Push(&e.running, c)

	js.MarkRunning(p.Ref.Phase, p.Ref.Index)
	js.CopiesLaunched++
	e.alloc[p.Ref.Job] = e.alloc[p.Ref.Job].Add(ph.Demand)
	if c.clone {
		e.cloneUse = e.cloneUse.Add(ph.Demand)
		if existing == 1 {
			js.TasksCloned++
		}
	}
	if js.FirstStart < 0 {
		js.FirstStart = e.clock
		if e.cfg.OnJobStart != nil {
			e.cfg.OnJobStart(js.Job.ID, e.clock)
		}
	}
	if e.cfg.RecordTrace {
		e.res.Trace = append(e.res.Trace, TraceEvent{
			Slot: e.clock, Kind: TracePlace, Ref: p.Ref,
			Server: p.Server, Demand: ph.Demand, Clone: c.clone,
		})
	}
	return nil
}

// sampleDuration draws a copy's compute duration in slots — a Pareto
// straggler draw (or the mean, when deterministic) divided by the
// server's effective speed, rounded up to ≥ 1 slot — and returns any
// cross-rack transfer penalty separately so completion-time accounting
// can keep the two apart.
func (e *Engine) sampleDuration(js *workload.JobState, ref workload.TaskRef, server cluster.ServerID) (dur, penalty int64) {
	ph := &js.Job.Phases[ref.Phase]
	var base float64
	if e.cfg.Deterministic {
		base = ph.MeanDuration
	} else {
		key := phaseKey{js.Job.ID, ref.Phase}
		dist, ok := e.dists[key]
		if !ok {
			var err error
			dist, err = stats.FitPareto(ph.MeanDuration, ph.SDDuration)
			if err != nil {
				// Validate() guarantees positive means; fall back to
				// deterministic rather than crash mid-run.
				dist = stats.Pareto{Alpha: 1e6, Xm: ph.MeanDuration}
			}
			e.dists[key] = dist
		}
		base = dist.Sample(e.rng)
	}
	speed := e.cfg.Cluster.Server(server).EffectiveSpeed()
	dur = int64(base/speed + 0.999999)
	if dur < 1 {
		dur = 1
	}
	if e.cfg.TransferPenalty > 0 {
		if e.crossRack(js, ref, server) || e.outputContention(js, ref) {
			penalty = e.cfg.TransferPenalty
		}
	}
	return dur, penalty
}

// outputContention reports whether this copy must share an upstream
// output with a sibling. The original copy (index 0) always has an
// output of its own. A clone (index c ≥ 1) reads a distinct output only
// under delay assignment, and only when upstream tasks ran at least
// c+1 copies; otherwise it fetches the shared output remotely (§5.2's
// "assigns the output from the copy that finishes first to all the
// copies of each downstream task").
func (e *Engine) outputContention(js *workload.JobState, ref workload.TaskRef) bool {
	copyIdx := js.LiveCopies(ref.Phase, ref.Index) // copies already placed for this task
	if copyIdx == 0 {
		return false
	}
	parents := js.Job.Phases[ref.Phase].Parents
	if len(parents) == 0 {
		return false // root phases read input blocks, not outputs
	}
	if !e.cfg.DelayAssignment {
		return true
	}
	// Mean upstream copy multiplicity across parents.
	total, n := 0.0, 0
	for _, par := range parents {
		if cps := e.copiesPerTask[phaseKey{js.Job.ID, par}]; cps != nil && cps.N() > 0 {
			total += cps.Mean()
			n++
		}
	}
	if n == 0 {
		return true
	}
	return total/float64(n) < float64(copyIdx+1)
}

// crossRack reports whether the server is off the rack holding the
// task's input data: the hashed HDFS-style input rack for root phases,
// the majority rack of the parents' outputs otherwise.
func (e *Engine) crossRack(js *workload.JobState, ref workload.TaskRef, server cluster.ServerID) bool {
	parents := js.Job.Phases[ref.Phase].Parents
	if len(parents) == 0 {
		if e.rackCount <= 1 {
			return false
		}
		want := workload.InputRack(ref, e.rackCount)
		return e.cfg.Cluster.Server(server).Rack != want
	}
	counts := make(map[int]int)
	for _, par := range parents {
		for rack, n := range e.outputRack[phaseKey{js.Job.ID, par}] {
			counts[rack] += n
		}
	}
	if len(counts) == 0 {
		return false
	}
	bestRack, bestN := -1, -1
	for rack, n := range counts {
		if n > bestN || (n == bestN && rack < bestRack) {
			bestRack, bestN = rack, n
		}
	}
	return e.cfg.Cluster.Server(server).Rack != bestRack
}

// checkInvariants cross-checks the ledger against the live copies.
func (e *Engine) checkInvariants() error {
	if err := e.cfg.Cluster.CheckInvariants(); err != nil {
		return err
	}
	perServer := make(map[cluster.ServerID]resources.Vector)
	perJob := make(map[workload.JobID]resources.Vector)
	var cloneUse resources.Vector
	live := 0
	for _, js := range e.active {
		lj := e.states[js.Job.ID]
		for k := range lj.copies {
			for l, c := range lj.copies[k] {
				n := 0
				for ; c != nil; c = c.next {
					if c.killed {
						return fmt.Errorf("sim: killed copy of %v still in the copy table", c.ref)
					}
					n++
					perServer[c.server] = perServer[c.server].Add(c.demand)
					perJob[c.ref.Job] = perJob[c.ref.Job].Add(c.demand)
					if c.clone {
						cloneUse = cloneUse.Add(c.demand)
					}
				}
				if got := js.LiveCopies(workload.PhaseID(k), l); got != n {
					return fmt.Errorf("sim: live-copy count drift for %v: state says %d, table holds %d",
						workload.TaskRef{Job: js.Job.ID, Phase: workload.PhaseID(k), Index: l}, got, n)
				}
				live += n
			}
		}
	}
	if live != e.liveCopies {
		return fmt.Errorf("sim: live-copy total drift: tracked %d, actual %d", e.liveCopies, live)
	}
	for id, want := range perJob {
		if got := e.alloc[id]; got != want {
			return fmt.Errorf("sim: allocation drift for job %d: tracked %v, actual %v", id, got, want)
		}
	}
	for _, s := range e.cfg.Cluster.Servers() {
		if got, want := s.Used(), perServer[s.ID]; got != want {
			return fmt.Errorf("sim: ledger drift on %s: used %v, copies hold %v", s.Name, got, want)
		}
	}
	if cloneUse != e.cloneUse {
		return fmt.Errorf("sim: clone usage drift: tracked %v, actual %v", e.cloneUse, cloneUse)
	}
	return nil
}
