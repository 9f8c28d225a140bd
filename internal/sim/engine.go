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
	"fmt"
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
	// RecordTrace captures every placement, completion, kill and loss in
	// Result.Trace so the run can be certified against the model's
	// constraints (internal/verify) or inspected offline. It is an
	// observer the engine installs ahead of Observe.
	RecordTrace bool
	// Observe, if set, is called at every event the engine processes:
	// arrival, copy place, complete, kill and lost, job start, job done
	// and clock advance (see TraceKind). Calls are synchronous, from the
	// engine's goroutine inside Step, in the order the events happen; the
	// observer may read the engine through its sched.Context methods but
	// must not keep the Observation past the call.
	Observe func(*Observation)
	// Online relaxes the non-empty-workload requirement and enables
	// InjectJob, for callers that drive the engine incrementally with
	// Start/Step while jobs stream in (see online.go). Batch runs via
	// Run are unaffected.
	Online bool
	// CompactJobs folds each finished job into Result.Digest (exact
	// count/sum/min/max, log-bucket flowtime and running-time
	// histograms) instead of appending a JobMetrics record to
	// Result.Jobs, so a multi-million-job replay's Result stays a few
	// hundred bytes instead of growing O(jobs). The observer's
	// TraceJobDone still carries the full record; only retention
	// changes. Figure-level analyses that need per-job series (ECDFs,
	// per-job ratios) must leave this off.
	CompactJobs bool
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

// heapEntry is one slot of the running heap. The finish slot is kept
// beside the pointer so a sift compares keys without touching the copies.
type heapEntry struct {
	finish int64
	c      *taskCopy
}

// copyHeap is a min-heap of running copies ordered by finish slot. Copies
// with equal finish slots pop in an order the sift sequence alone decides,
// and that order is part of every schedule: it is the order winners feed
// the EWMA speed estimates and jobs reach the result. push and pop
// therefore repeat container/heap's sequence exactly — parent (j-1)/2, the
// left child wins a tie between children, a child moves up only when
// strictly smaller — with the moving entry held aside instead of swapped
// level by level, which compares and settles identically.
type copyHeap []heapEntry

func (h *copyHeap) push(c *taskCopy) {
	x := heapEntry{finish: c.finish, c: c}
	*h = append(*h, x)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[i].finish <= x.finish {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = x
}

// pop removes and returns the copy with the smallest finish slot. As in
// container/heap, the last entry moves to the root and sifts down.
func (h *copyHeap) pop() *taskCopy {
	s := *h
	n := len(s) - 1
	top, x := s[0].c, s[n]
	s[n] = heapEntry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].finish < s[j].finish {
			j = r
		}
		if s[j].finish >= x.finish {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	return top
}

// phaseRec is what the engine has learned about one phase of a live job.
type phaseRec struct {
	// dist is the fitted straggler model durations are drawn from (unset
	// in Deterministic runs, which draw nothing).
	dist stats.Pareto
	// observed summarises the winning copies' durations, copies the number
	// of concurrent copies each completed task ran — the upstream-output
	// multiplicity delay assignment distributes.
	observed stats.Summary
	copies   stats.Summary
	// racks[r] counts the winning copies that ran on rack r.
	racks []int32
}

// liveJob is the engine's record of one unfinished job, and everything a
// placement or a completion needs is on it: a taskCopy carries the
// pointer, so neither hashes anything. copies[k][l] heads the list of
// task (k, l)'s live copies in placement order — the original first,
// clones after — linked through taskCopy.next; the matching count is
// JobState.LiveCopies. phases[k] is phase k's record and alloc the
// resources the job's live copies hold. The copy table and the phase
// records are allocated at the job's first placement (open) and go away
// with the record in releaseJob, so a queued job carries neither.
type liveJob struct {
	*workload.JobState
	copies [][]*taskCopy
	phases []phaseRec
	alloc  resources.Vector
}

func newLiveJob(j *workload.Job) *liveJob {
	return &liveJob{JobState: workload.NewJobState(j)}
}

// open allocates the copy table and the phase records: one backing array
// each for the task cells and the rack tallies, whatever the phase count.
// fit asks for the per-phase Pareto models.
func (lj *liveJob) open(racks int, fit bool) {
	phases := lj.Job.Phases
	tasks := 0
	for k := range phases {
		tasks += phases[k].Tasks
	}
	cells := make([]*taskCopy, tasks)
	tally := make([]int32, len(phases)*racks)
	lj.copies = make([][]*taskCopy, len(phases))
	lj.phases = make([]phaseRec, len(phases))
	for k := range phases {
		n := phases[k].Tasks
		lj.copies[k], cells = cells[:n:n], cells[n:]
		rec := &lj.phases[k]
		rec.racks, tally = tally[:racks:racks], tally[racks:]
		if !fit {
			continue
		}
		dist, err := stats.FitPareto(phases[k].MeanDuration, phases[k].SDDuration)
		if err != nil {
			// Validate() guarantees positive means; fall back to
			// deterministic rather than crash mid-run.
			dist = stats.Pareto{Alpha: 1e6, Xm: phases[k].MeanDuration}
		}
		rec.dist = dist
	}
}

// majorityRack returns the rack that ran the most winning copies of the
// given phases taken together, the lowest such rack on a tie (the scan
// goes upward and replaces only on >); ok is false while none has won.
func (lj *liveJob) majorityRack(phases ...workload.PhaseID) (rack int, ok bool) {
	best := int32(0)
	for r := range lj.phases[phases[0]].racks {
		n := int32(0)
		for _, k := range phases {
			n += lj.phases[k].racks[r]
		}
		if n > best {
			rack, best = r, n
		}
	}
	return rack, best > 0
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
	// finished counts the jobs completeTask has finished (Finish stamped)
	// that processCompletions has yet to cut out of active.
	finished int

	running copyHeap
	// copyFree recycles taskCopy objects between placements — the
	// per-event allocation the profiler flags on the drain hot path. A
	// copy returns to the list only once it is out of both its job's
	// copy table and the running heap.
	copyFree []*taskCopy
	rng      *stats.RNG
	cloneUse resources.Vector

	events    []Event
	nextEvent int

	// speedEst is the per-server online speed estimate (EWMA of
	// declared-mean / observed-duration over winning copies).
	speedEst []speedEstimate
	// rackCount is 1 + the highest rack index in the fleet: the length of
	// every rack tally.
	rackCount int

	// obs is record when Config.RecordTrace is set, else Config.Observe
	// (nil for neither); event and doneJob are the one record it is
	// handed.
	obs     func(*Observation)
	event   Observation
	doneJob JobMetrics

	res     Result
	utilCPU float64 // ∫ used dt, for average utilization
	utilMem float64
	started bool
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
		cfg:    cfg,
		states: make(map[workload.JobID]*liveJob, len(cfg.Jobs)),
		rng:    stats.NewRNG(cfg.Seed),
	}
	if cfg.CompactJobs {
		e.res.Digest = &JobDigest{}
	}
	e.obs = cfg.Observe
	if cfg.RecordTrace {
		e.obs = e.record
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
		if s.Rack < 0 {
			return nil, fmt.Errorf("sim: server %s has negative rack %d", s.Name, s.Rack)
		}
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
	for _, js := range e.processArrivals() {
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
	for len(e.running) > 0 && e.running[0].c.killed {
		e.freeCopy(e.running.pop())
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
		dt := float64(t - e.clock)
		used := e.cfg.Cluster.TotalUsed()
		e.utilCPU += float64(used.CPUMilli) * dt
		e.utilMem += float64(used.MemMiB) * dt
		if e.obs != nil {
			e.observe(TraceAdvance, nil, 0, nil)
		}
		e.clock = t
	}
}

func (e *Engine) processArrivals() []*workload.JobState {
	var arrived []*workload.JobState
	for js := e.arrivals.Peek(); js != nil && js.Job.Arrival <= e.clock; js = e.arrivals.Peek() {
		e.arrivals.Pop()
		e.active = append(e.active, js)
		arrived = append(arrived, js)
		if e.obs != nil {
			e.observe(TraceArrive, nil, js.Job.ID, nil)
		}
	}
	return arrived
}

// processCompletions handles every copy finishing at or before the clock,
// then cuts the jobs that finished out of e.active.
func (e *Engine) processCompletions() error {
	for len(e.running) > 0 && e.running[0].finish <= e.clock {
		c := e.running.pop()
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
	e.compactActive()
	return nil
}

// compactActive removes the jobs finished since the last call from
// e.active in one pass that keeps the order of the rest (the
// sched.Context.Jobs contract). It runs before anything walks e.active
// again: processEvents' failServer, the scheduler.
func (e *Engine) compactActive() {
	if e.finished == 0 {
		return
	}
	w := 0
	for w < len(e.active) && e.active[w].Finish < 0 {
		w++ // the untouched prefix is not rewritten
	}
	for _, js := range e.active[w:] {
		if js.Finish < 0 {
			e.active[w] = js
			w++
		}
	}
	clear(e.active[w:])
	e.active = e.active[:w]
	e.finished = 0
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
	rec := &js.phases[ref.Phase]

	rec.observed.Add(float64(e.clock - winner.start))
	// Speed is compute time only: a cross-rack transfer penalty in the
	// denominator would make a healthy server look slow and steer
	// WithStragglerAvoidance away from it.
	if dur := e.clock - winner.start - winner.penalty; dur > 0 {
		e.speedEst[winner.server].observe(
			js.Job.Phases[ref.Phase].MeanDuration / float64(dur))
	}

	rec.racks[e.cfg.Cluster.Server(winner.server).Rack]++
	rec.copies.Add(float64(js.LiveCopies(ref.Phase, ref.Index)))

	for c := js.copies[ref.Phase][ref.Index]; c != nil; {
		if err := e.cfg.Cluster.Release(c.server, c.demand); err != nil {
			return fmt.Errorf("sim: release %v: %w", c.ref, err)
		}
		js.Usage.AddFor(c.demand, e.clock-c.start)
		e.res.TotalUsage.AddFor(c.demand, e.clock-c.start)
		if c.clone {
			e.cloneUse = e.cloneUse.Sub(c.demand)
		}
		js.alloc = js.alloc.Sub(c.demand)
		if e.obs != nil && c != winner {
			e.observe(TraceKill, c, 0, nil)
		}
		c = c.kill()
	}
	if e.obs != nil {
		e.observe(TraceComplete, winner, 0, nil)
	}
	js.copies[ref.Phase][ref.Index] = nil

	if err := js.MarkDone(ref.Phase, ref.Index); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if js.Done() {
		// The stamped Finish is the mark compactActive cuts by.
		js.Finish = e.clock
		e.finished++
		e.recordJob(js.JobState)
		e.releaseJob(js.JobState)
	}
	return nil
}

// releaseJob drops a job's record once the job has completed and its
// metrics are recorded; the copy table and the phase records go with it,
// so a long-lived online engine retains nothing per job ever completed.
// The finished ID moves into the done bitmap (one bit, not a map
// tombstone) so InjectJob still rejects re-use of a finished job ID at
// any replay scale.
func (e *Engine) releaseJob(js *workload.JobState) {
	delete(e.states, js.Job.ID)
	e.done.Add(js.Job.ID)
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

	if js.copies == nil {
		js.open(e.rackCount, !e.cfg.Deterministic)
	}
	dur, penalty := e.sampleDuration(js, p.Ref, p.Server)
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
	e.running.push(c)

	js.MarkRunning(p.Ref.Phase, p.Ref.Index)
	js.CopiesLaunched++
	js.alloc = js.alloc.Add(ph.Demand)
	if c.clone {
		e.cloneUse = e.cloneUse.Add(ph.Demand)
		if existing == 1 {
			js.TasksCloned++
		}
	}
	if js.FirstStart < 0 {
		js.FirstStart = e.clock
		if e.obs != nil {
			e.observe(TraceJobStart, nil, js.Job.ID, nil)
		}
	}
	if e.obs != nil {
		e.observe(TracePlace, c, 0, nil)
	}
	return nil
}

// sampleDuration draws a copy's compute duration in slots — a Pareto
// straggler draw (or the mean, when deterministic) divided by the
// server's effective speed, rounded up to ≥ 1 slot — and returns any
// cross-rack transfer penalty separately so completion-time accounting
// can keep the two apart.
func (e *Engine) sampleDuration(js *liveJob, ref workload.TaskRef, server cluster.ServerID) (dur, penalty int64) {
	base := js.Job.Phases[ref.Phase].MeanDuration
	if !e.cfg.Deterministic {
		base = js.phases[ref.Phase].dist.Sample(e.rng)
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
func (e *Engine) outputContention(js *liveJob, ref workload.TaskRef) bool {
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
		if cps := &js.phases[par].copies; cps.N() > 0 {
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
func (e *Engine) crossRack(js *liveJob, ref workload.TaskRef, server cluster.ServerID) bool {
	parents := js.Job.Phases[ref.Phase].Parents
	if len(parents) == 0 {
		if e.rackCount <= 1 {
			return false
		}
		want := workload.InputRack(ref, e.rackCount)
		return e.cfg.Cluster.Server(server).Rack != want
	}
	want, ok := js.majorityRack(parents...)
	return ok && e.cfg.Cluster.Server(server).Rack != want
}

// checkInvariants cross-checks the ledger against the live copies.
func (e *Engine) checkInvariants() error {
	if err := e.cfg.Cluster.CheckInvariants(); err != nil {
		return err
	}
	perServer := make(map[cluster.ServerID]resources.Vector)
	var cloneUse resources.Vector
	for _, js := range e.active {
		lj := e.states[js.Job.ID]
		var held resources.Vector // zero for a job that holds no copy
		for k := range lj.copies {
			for l, c := range lj.copies[k] {
				n := 0
				for ; c != nil; c = c.next {
					if c.killed {
						return fmt.Errorf("sim: killed copy of %v still in the copy table", c.ref)
					}
					n++
					perServer[c.server] = perServer[c.server].Add(c.demand)
					held = held.Add(c.demand)
					if c.clone {
						cloneUse = cloneUse.Add(c.demand)
					}
				}
				if got := js.LiveCopies(workload.PhaseID(k), l); got != n {
					return fmt.Errorf("sim: live-copy count drift for %v: state says %d, table holds %d",
						workload.TaskRef{Job: js.Job.ID, Phase: workload.PhaseID(k), Index: l}, got, n)
				}
			}
		}
		if lj.alloc != held {
			return fmt.Errorf("sim: allocation drift for job %d: tracked %v, actual %v", js.Job.ID, lj.alloc, held)
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
