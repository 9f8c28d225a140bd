// Package shard runs the online scheduling service as P independent
// partitions behind one routing front end. The fleet is split into P
// disjoint sub-fleets (cluster.Partition), each owned by its own
// service.Service scheduling loop, so submission handling and engine
// stepping scale with cores instead of serializing on a single loop —
// the decomposition studied for parallel task packing under placement
// constraints (Shafiee & Ghaderi, arXiv:2004.00518).
//
// The Router places each incoming job by power-of-two-choices: sample
// two distinct shards, compare their (queue depth, outstanding task
// volume) loads, send the job to the lighter one. Load-aware two-choice
// routing keeps the per-partition queues balanced without global state;
// RouteSingle pins everything to shard 0 for reproducible tests — a
// P=1 router is then bit-for-bit identical to an unsharded service.
//
// Job IDs stay globally unique without cross-shard coordination: shard
// k allocates IDs k+1, k+1+P, k+1+2P, ... (service.Config.IDBase/
// IDStride), so the owner of any ID is (id-1) mod P and lookups touch
// exactly one shard — unless the job has been migrated, in which case
// the router's ownership map names its current home.
//
// Placement happens at submission time, so a shard that falls behind
// would keep its backlog while siblings idle. With Config.Steal a
// rebalancer goroutine watches per-shard loads and migrates still-
// queued (not yet admitted) jobs from a straggling shard's admission
// queue to a near-idle one — the paper's straggler mitigation applied
// one level up, to shards instead of tasks. Each migration is one
// service.Donate under both shards' locks, so what the thief cannot take
// never leaves the victim and no reader sees a job on neither shard or
// on both. Stealing is off by default and a steal-free router is
// bit-for-bit identical to one built before the rebalancer existed.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// RoutePolicy selects how the router places incoming jobs.
type RoutePolicy string

const (
	// RouteP2C is power-of-two-choices on (queue depth, outstanding
	// task volume): the default.
	RouteP2C RoutePolicy = "p2c"
	// RouteSingle sends every job to shard 0 — the deterministic
	// fallback for reproducible tests and P=1 deployments.
	RouteSingle RoutePolicy = "single"
)

// Config configures a Router.
type Config struct {
	// Fleet is the whole cluster; New partitions it into Shards
	// disjoint sub-fleets (round-robin by server index).
	Fleet *cluster.Cluster
	// Shards is the partition count P; 0 means 1.
	Shards int
	// TotalShards is the global shard count of a federated deployment:
	// this router owns Shards of TotalShards residue classes, with the
	// rest owned by sibling members behind a federation gateway. 0 means
	// Shards — the whole deployment in one process, today's behavior.
	TotalShards int
	// Residues names the global residue classes this router's shards
	// own, one per local shard: local shard k allocates IDs
	// Residues[k]+1, Residues[k]+1+TotalShards, ... and journals to
	// segment Residues[k]. Nil means the identity [0..Shards), which is
	// only valid when TotalShards == Shards.
	Residues []int
	// NewScheduler builds shard k's policy instance. Policies are
	// stateful, so every shard needs its own. Required.
	NewScheduler func(shard int) (sched.Scheduler, error)
	// Seed seeds shard k's engine with Seed+k, keeping shards
	// decorrelated but the whole deployment deterministic.
	Seed uint64
	// Deterministic disables duration noise (tests, smoke runs).
	Deterministic bool
	// QueueCap bounds each shard's admission queue (per shard, not
	// total); 0 means service.DefaultQueueCap.
	QueueCap int
	// Policy is the routing policy; empty means RouteP2C. A single
	// shard always routes deterministically regardless of policy.
	Policy RoutePolicy

	// Steal enables the cross-shard rebalancer: a background goroutine
	// that migrates still-queued jobs from a straggling shard to a
	// near-idle one. Off by default; with stealing off the router's
	// behavior is identical to a router without the mechanism.
	Steal bool

	// JournalDir, when non-empty, makes intake crash-safe: each shard
	// appends job lifecycle transitions to its own segment file in this
	// directory (journal.SegmentPath), and New replays every segment
	// found there — including segments left by a run with a different
	// shard count — re-homing unfinished jobs onto their residue-class
	// shard before any loop starts. The directory is created if
	// missing. Empty keeps today's in-memory behavior.
	JournalDir string

	// Admission, when non-nil, polices external submissions at the
	// router — the deployment's edge — before any shard is picked. The
	// policy is charged once per SubmitNowait call; the router's
	// internal spill over shards, the rebalancer, and journal
	// replay all bypass it (that work was admitted already). A service
	// has no policy of its own, so this is the one charge a submission
	// to the deployment pays, against the deployment-wide snapshot.
	Admission admission.Policy
}

// The rebalancer's trigger: constants, not options — no deployment has
// needed a second value of any.
const (
	// stealInterval is how often the rebalancer scans loads.
	stealInterval = 500 * time.Microsecond
	// stealRatio is the imbalance trigger: a migration fires only when
	// the victim's queue is at least this many times the thief's (plus
	// one, so an empty thief still needs a non-trivial victim).
	stealRatio = 2
	// stealNearEmpty is the thief-side gate: only a shard whose queue
	// is at most this deep may steal — a busy shard fixing another
	// busy shard just moves the backlog around.
	stealNearEmpty = 1
)

// Router fans one service API out over P scheduling loops. It
// implements service.API, so service.NewHandler mounts the HTTP surface
// on it unchanged.
type Router struct {
	cfg    Config
	shards []*service.Service

	// total and residues are the resolved global ID-space geometry:
	// local shard k owns global residue residues[k] of total classes;
	// residueIdx inverts residues. In a non-federated deployment these
	// are the identity (total == len(shards), residues[k] == k).
	total      int
	residues   []int
	residueIdx map[int]int

	// reg holds every series of the deployment: each shard's, labelled
	// shard="k", and the router's own.
	reg    *metrics.Registry
	routed []*metrics.Counter

	// Journal state (used only when cfg.JournalDir is set). The router
	// owns the segment journals: it opens them before the services
	// exist, hands one to each shard, and closes them after a full
	// drain. jnlStale counts leftover segments of a previous topology,
	// replayed read-only and left in place (their jobs were re-homed).
	jnls     []*journal.Journal
	jnlExtra service.JournalStatus // dir-level stats not owned by any shard
	adoptMu  sync.Mutex            // single-flights Adopt (journal takeover)

	// Edge-admission state (used only when cfg.Admission is set).
	denied  atomic.Int64
	mDenied *metrics.Counter // nil unless cfg.Admission is set

	mu  sync.Mutex
	rng *stats.RNG

	// Work-stealing state (used only when cfg.Steal).
	//
	// migMu serializes migrations against ID lookups: a migration moves
	// a job's lifecycle record from one shard's map to another's and
	// updates the ownership map, and readers holding migMu.RLock never
	// observe the in-between state (job on neither shard, or on both).
	// The ownership map also homes jobs whose residue class this router
	// does not own — re-homed stale segments and adopted takeover jobs —
	// so it exists regardless of Config.Steal.
	migMu     sync.RWMutex
	owned     map[workload.JobID]int // off-residue job -> current shard; guarded by migMu
	stolen    atomic.Int64           // total jobs migrated off their submission shard
	mStolen   []*metrics.Counter     // jobs stolen from shard k
	mInjected []*metrics.Counter     // jobs migrated into shard k
	stealRun  atomic.Bool            // rebalancer goroutine launched
	stealStop chan struct{}
	stealOnce sync.Once
	stealDone chan struct{}
}

// Compile-time check: the router serves the same HTTP surface as a
// single service.
var _ service.API = (*Router)(nil)

// New partitions the fleet and builds one stopped service per shard;
// call Start to launch the scheduling loops.
func New(cfg Config) (*Router, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("shard: nil fleet")
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("shard: nil scheduler factory")
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = RouteP2C
	case RouteP2C, RouteSingle:
	default:
		return nil, fmt.Errorf("shard: unknown route policy %q (valid: %s, %s)", cfg.Policy, RouteP2C, RouteSingle)
	}
	if cfg.TotalShards == 0 {
		cfg.TotalShards = cfg.Shards
	}
	if cfg.TotalShards < cfg.Shards {
		return nil, fmt.Errorf("shard: total shards %d < local shards %d", cfg.TotalShards, cfg.Shards)
	}
	if cfg.Residues == nil {
		if cfg.TotalShards != cfg.Shards {
			return nil, fmt.Errorf("shard: %d of %d global shards requires explicit residues", cfg.Shards, cfg.TotalShards)
		}
		cfg.Residues = make([]int, cfg.Shards)
		for k := range cfg.Residues {
			cfg.Residues[k] = k
		}
	}
	if len(cfg.Residues) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d residues for %d shards", len(cfg.Residues), cfg.Shards)
	}
	residueIdx := make(map[int]int, cfg.Shards)
	for k, res := range cfg.Residues {
		if res < 0 || res >= cfg.TotalShards {
			return nil, fmt.Errorf("shard: residue %d outside [0, %d)", res, cfg.TotalShards)
		}
		if _, dup := residueIdx[res]; dup {
			return nil, fmt.Errorf("shard: duplicate residue %d", res)
		}
		residueIdx[res] = k
	}
	parts, err := cluster.Partition(cfg.Fleet, cfg.Shards)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:        cfg,
		total:      cfg.TotalShards,
		residues:   cfg.Residues,
		residueIdx: residueIdx,
		reg:        metrics.NewRegistry(),
		rng:        stats.NewRNG(cfg.Seed).Split(0x5a5a),
		owned:      make(map[workload.JobID]int),
		stealStop:  make(chan struct{}),
		stealDone:  make(chan struct{}),
	}
	// Open (and replay) the journal segments before any service exists:
	// every accepted job of the previous run must be re-homed before a
	// loop can start admitting new work.
	ok := false
	defer func() {
		if !ok {
			r.closeJournals()
		}
	}()
	ownReplays, staleReplays, err := r.openJournals()
	if err != nil {
		return nil, err
	}
	for k := 0; k < cfg.Shards; k++ {
		policy, err := cfg.NewScheduler(k)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		var jnl *journal.Journal
		if r.jnls != nil {
			jnl = r.jnls[k]
		}
		// Shard labels, ID classes, and segment files all use the GLOBAL
		// residue, so a federation gateway can merge member expositions
		// and route by ID arithmetic without per-member translation. In a
		// non-federated deployment residues[k] == k and nothing changes.
		res := r.residues[k]
		svc, err := service.New(service.Config{
			Cluster:       parts[k],
			Scheduler:     policy,
			Seed:          cfg.Seed + uint64(res),
			Deterministic: cfg.Deterministic,
			QueueCap:      cfg.QueueCap,
			Registry:      r.reg,
			MetricLabels:  metrics.Labels{"shard": strconv.Itoa(res)},
			IDBase:        workload.JobID(res + 1),
			IDStride:      r.total,
			Journal:       jnl,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		r.shards = append(r.shards, svc)
		r.routed = append(r.routed, r.reg.Counter("dollymp_router_jobs_routed_total",
			"Jobs placed on a shard by the router.", metrics.Labels{"shard": strconv.Itoa(res)}))
		if cfg.Steal {
			r.mStolen = append(r.mStolen, r.reg.Counter("dollymp_router_jobs_stolen_total",
				"Queued jobs the rebalancer migrated away from a shard.", metrics.Labels{"shard": strconv.Itoa(res)}))
			r.mInjected = append(r.mInjected, r.reg.Counter("dollymp_router_jobs_injected_total",
				"Queued jobs the rebalancer migrated into a shard.", metrics.Labels{"shard": strconv.Itoa(res)}))
		}
	}
	if cfg.Admission != nil {
		r.mDenied = r.reg.Counter("dollymp_jobs_denied_total",
			"Submissions denied by the edge admission policy.", nil)
	}
	if err := r.restore(ownReplays, staleReplays); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// openJournals creates the journal directory and opens one segment per
// shard, replaying whatever a previous run left behind. Segments of a
// previous topology (shard index ≥ P, from a run with more shards) are
// replayed read-only and left in place: their unfinished jobs are
// re-homed into the current segments by restore, and completed-wins
// deduplication keeps later replays of the stale files harmless.
func (r *Router) openJournals() (own, stale []*journal.Replay, err error) {
	if r.cfg.JournalDir == "" {
		return nil, nil, nil
	}
	dir := r.cfg.JournalDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: journal dir: %w", err)
	}
	r.jnls = make([]*journal.Journal, r.cfg.Shards)
	owned := make(map[string]bool, r.cfg.Shards)
	own = make([]*journal.Replay, r.cfg.Shards)
	for k := 0; k < r.cfg.Shards; k++ {
		path := journal.SegmentPath(dir, r.cfg.Residues[k])
		owned[path] = true
		jnl, rep, err := journal.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", k, err)
		}
		r.jnls[k] = jnl
		own[k] = rep
	}
	segs, err := journal.ListSegments(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: %w", err)
	}
	for _, path := range segs {
		if owned[path] {
			continue
		}
		rep, err := journal.ReplayFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: stale segment: %w", err)
		}
		stale = append(stale, rep)
		r.jnlExtra.StaleSegments++
		r.jnlExtra.ReplayedRecords += rep.Records
		r.jnlExtra.TruncatedBytes += rep.Truncated
	}
	r.jnlExtra.Enabled = true
	r.jnlExtra.Segments = r.cfg.Shards
	return own, stale, nil
}

// restore merges every segment's replay — owned and stale — into one
// deduplicated job set and seeds each job's home shard with it:
// completed jobs as lifecycle history, unfinished jobs re-enqueued.
// Jobs from residue classes this router does not own (stale segments of
// a different topology) are re-homed deterministically and registered
// in the ownership map so lookups still find them.
func (r *Router) restore(own, stale []*journal.Replay) error {
	if r.cfg.JournalDir == "" {
		return nil
	}
	merged := journal.Merge(append(append([]*journal.Replay{}, own...), stale...)...)
	perShard := make([][]*journal.ReplayJob, r.cfg.Shards)
	for _, rj := range merged {
		k, home := r.homeShard(rj.ID)
		perShard[k] = append(perShard[k], rj)
		if !home {
			r.owned[rj.ID] = k // New is single-threaded; no lock yet
		}
	}
	for k, jobs := range perShard {
		if err := r.shards[k].Restore(jobs, own[k].Records, own[k].Truncated); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// homeShard maps a job ID to the local shard that should hold it: its
// residue class's shard when this router owns the class, else a
// deterministic fallback (the class modulo the local shard count).
// home reports whether the ID's own class landed it there — when false
// the caller must record the placement in the ownership map.
func (r *Router) homeShard(id workload.JobID) (k int, home bool) {
	res := (int(id) - 1) % r.total
	if k, ok := r.residueIdx[res]; ok {
		return k, true
	}
	return res % len(r.shards), false
}

// closeJournals flushes and closes every open segment.
func (r *Router) closeJournals() error {
	var errs []error
	for _, jnl := range r.jnls {
		if jnl != nil {
			errs = append(errs, jnl.Close())
		}
	}
	r.jnls = nil
	return errors.Join(errs...)
}

// JournalStatus aggregates recovery state across shards (zero when
// journaling is off): the journal slice of Snapshot.
func (r *Router) JournalStatus() service.JournalStatus {
	if js := r.Snapshot().Journal; js != nil {
		return *js
	}
	return service.JournalStatus{}
}

// NumShards returns the partition count P. (Per-shard status rows come
// from Shards; this is just the count.)
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns shard k's service (tests and embedders).
func (r *Router) Shard(k int) *service.Service { return r.shards[k] }

// Stolen returns the total number of jobs the rebalancer has migrated
// off their submission shard. Always 0 with stealing disabled.
func (r *Router) Stolen() int64 { return r.stolen.Load() }

// Start launches every shard's scheduling loop and, with Config.Steal,
// the rebalancer goroutine. Idempotent.
func (r *Router) Start() {
	for _, s := range r.shards {
		s.Start()
	}
	if r.cfg.Steal && len(r.shards) > 1 && r.stealRun.CompareAndSwap(false, true) {
		go r.rebalance()
	}
}

// p2c chooses a shard by power-of-two-choices on load: sample two
// distinct shards, take the lighter, ties to the lower index. A single
// shard or RouteSingle takes shard 0.
func (r *Router) p2c() int {
	if len(r.shards) == 1 || r.cfg.Policy == RouteSingle {
		return 0
	}
	r.mu.Lock()
	i := r.rng.Intn(len(r.shards))
	j := r.rng.Intn(len(r.shards) - 1)
	r.mu.Unlock()
	if j >= i {
		j++ // j uniform over the other shards
	}
	li, lj := r.shards[i].Load(), r.shards[j].Load()
	if lj.Less(li) || (!li.Less(lj) && j < i) {
		return j
	}
	return i
}

// AdmissionSnapshot implements admission.SnapshotProvider over the
// whole deployment: queue depth/capacity, active jobs, and pending
// arrivals summed across shards, clock at the frontier (max).
func (r *Router) AdmissionSnapshot() admission.Snapshot {
	var snap admission.Snapshot
	for _, s := range r.shards {
		ss := s.AdmissionSnapshot()
		snap.QueueDepth += ss.QueueDepth
		snap.QueueCap += ss.QueueCap
		snap.ActiveJobs += ss.ActiveJobs
		snap.PendingArrivals += ss.PendingArrivals
		if ss.Clock > snap.Clock {
			snap.Clock = ss.Clock
		}
	}
	return snap
}

// Admission returns the edge-admission view. The router owns the
// policy (a service has none), so its accounting is the deployment's.
func (r *Router) Admission() service.AdmissionStatus {
	return service.AdmissionStatusOf(r.cfg.Admission, r.denied.Load())
}

// SubmitNowait routes one job with immediate backpressure. The edge
// admission policy (if any) is consulted first — a denial returns
// *service.AdmissionError without touching any shard. If the chosen
// shard's queue is full — or that shard is draining — it tries
// every other shard in index order: a job is only rejected when the
// whole deployment is saturated (ErrQueueFull) or every shard is
// draining (ErrStopped). A single stopped shard never refuses work the
// rest of the deployment could take.
func (r *Router) SubmitNowait(j *workload.Job) (workload.JobID, error) {
	// Charged exactly once, before any shard is tried. With no policy
	// configured nothing runs here — the shard validates.
	if r.cfg.Admission != nil {
		err := service.ChargeAdmission(context.Background(), r.cfg.Admission, r, j, func() {
			r.denied.Add(1)
			r.mDenied.Inc()
		})
		if err != nil {
			return 0, err
		}
	}
	k := r.p2c()
	sawFull := false
	for n := 0; n < len(r.shards); n++ {
		o := (k + n) % len(r.shards)
		id, err := r.shards[o].SubmitNowait(j)
		switch {
		case err == nil:
			r.routed[o].Inc()
			return id, nil
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		case errors.Is(err, ErrStopped):
			// Draining shard: fall through to its live siblings.
		default:
			return 0, err // validation error; identical on every shard
		}
	}
	if sawFull {
		return 0, ErrQueueFull
	}
	return 0, ErrStopped
}

// Job returns the lifecycle record for one job. The ownership map is
// consulted first — a migrated or adopted job lives on the shard that
// took it, not in its ID's residue class — and the residue-class shard
// is the fallback for never-moved jobs, so exactly one loop is
// consulted either way. An ID whose residue class belongs to a sibling
// federation member (and was never adopted here) is simply not found.
// Holding migMu across the lookup means a job mid-migration is seen at
// its old home or its new one, never at neither.
func (r *Router) Job(id workload.JobID) (service.JobInfo, bool) {
	if id < 1 {
		return service.JobInfo{}, false
	}
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	k, ok := r.owned[id]
	if !ok {
		res := (int(id) - 1) % r.total
		if k, ok = r.residueIdx[res]; !ok {
			return service.JobInfo{}, false
		}
	}
	return r.shards[k].Job(id)
}

// Jobs merges every shard's filtered lifecycle records, sorted by ID.
// Taken under the migration lock so a job moving between shards is
// listed exactly once.
func (r *Router) Jobs(f service.JobFilter) []service.JobInfo {
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	var out []service.JobInfo
	for _, s := range r.shards {
		out = append(out, s.Jobs(f)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns job accounting summed across shards, under the
// migration lock: a migration moves Submitted from victim to thief, and
// the sum must never be observed mid-move.
func (r *Router) Counts() service.Counts {
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	var c service.Counts
	for _, s := range r.shards {
		c.Add(s.Counts())
	}
	// Edge denials happen at the router, before any shard is picked, so
	// no shard counted them.
	c.Denied += r.denied.Load()
	return c
}

// Shards returns per-shard status with global residue indices stamped,
// so /v1/shards rows from federated members concatenate without
// colliding. Non-federated deployments see 0..P-1 as before.
func (r *Router) Shards() []service.ShardStatus {
	out := make([]service.ShardStatus, len(r.shards))
	for k, s := range r.shards {
		st := s.Status()
		st.Shard = r.residues[k]
		out[k] = st
	}
	return out
}

// Snapshot folds the per-shard snapshots into one cluster view by the
// merge rules of service.ClusterSnapshot.Add, in shard order, on top of
// the directory-level journal stats no shard owns. Taken under the
// migration lock so a job moving between shards is counted once.
func (r *Router) Snapshot() service.ClusterSnapshot {
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	agg := service.ClusterSnapshot{Shards: len(r.shards)}
	if r.cfg.JournalDir != "" {
		js := r.jnlExtra
		agg.Journal = &js
	}
	for _, s := range r.shards {
		agg.Add(s.Snapshot())
	}
	agg.Jobs.Denied += r.denied.Load() // edge denials live on the router
	return agg
}

// Draining reports whether any shard has begun draining.
func (r *Router) Draining() bool {
	for _, s := range r.shards {
		if s.Draining() {
			return true
		}
	}
	return false
}

// Ready reports whether every scheduling loop is started and serving
// (no drain, no terminal error). Part of the API interface (/readyz):
// a federated member answers 503 until its startup replay is finished
// and all its loops are up.
func (r *Router) Ready() bool {
	for _, s := range r.shards {
		if !s.Ready() {
			return false
		}
	}
	return true
}

// Crash simulates abrupt process death for tests: every journal fd is
// closed without flushing, dropping buffered records and releasing the
// segment leases exactly the way a SIGKILL would. The scheduling loops
// are left running — they fail on their next journal append, just as a
// real process dies mid-write — so after Crash the router serves
// errors, its segments are adoptable, and a fresh router can replay
// the directory. No-op without journaling.
func (r *Router) Crash() error {
	var errs []error
	for _, jnl := range r.jnls {
		if jnl != nil {
			errs = append(errs, jnl.Crash())
		}
	}
	return errors.Join(errs...)
}

// Err returns the first shard scheduling-loop error, if any.
func (r *Router) Err() error {
	for _, s := range r.shards {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// rebalance is the work-stealing loop: every stealInterval it scans
// per-shard loads and migrates queued jobs off stragglers, until Stop
// quiesces it.
func (r *Router) rebalance() {
	defer close(r.stealDone)
	tk := time.NewTicker(stealInterval)
	defer tk.Stop()
	for {
		select {
		case <-r.stealStop:
			return
		case <-tk.C:
			r.rebalanceOnce()
		}
	}
}

// rebalanceOnce runs one scan, migrating between as many victim/thief
// pairs as qualify (at most P-1), and returns the jobs moved. Exposed
// to tests for deterministic, ticker-free driving.
func (r *Router) rebalanceOnce() int {
	moved := 0
	for range r.shards {
		n := r.rebalanceStep()
		if n == 0 {
			break
		}
		moved += n
	}
	return moved
}

// rebalanceStep finds the heaviest (victim) and lightest (thief) live
// shards and migrates queued jobs when the imbalance passes the
// trigger: thief near-empty and victim's queue at least stealRatio
// times the thief's. Half the depth difference moves.
func (r *Router) rebalanceStep() int {
	victim, thief := -1, -1
	var lv, lt service.Load
	for k, s := range r.shards {
		if s.Draining() {
			continue
		}
		l := s.Load()
		if victim < 0 || lv.Less(l) {
			victim, lv = k, l
		}
		if thief < 0 || l.Less(lt) {
			thief, lt = k, l
		}
	}
	if victim < 0 || thief < 0 || victim == thief {
		return 0
	}
	if lt.QueueDepth > stealNearEmpty {
		return 0
	}
	if lv.QueueDepth < stealRatio*(lt.QueueDepth+1) {
		return 0
	}
	return r.migrate(victim, thief, (lv.QueueDepth-lt.QueueDepth)/2)
}

// migrate donates up to n queued jobs from victim to thief in one step
// (service.Donate) and records their new owner under the migration
// lock. A thief that is full or draining takes fewer, and what it does
// not take never leaves the victim — there is nothing to repair.
// Returns the jobs moved.
func (r *Router) migrate(victim, thief, n int) int {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	ids := r.shards[victim].Donate(r.shards[thief], n)
	for _, id := range ids {
		// A job back in its ID's residue-class shard needs no entry: the
		// arithmetic fallback finds it.
		if (int(id)-1)%r.total == r.residues[thief] {
			delete(r.owned, id)
		} else {
			r.owned[id] = thief
		}
	}
	r.mStolen[victim].Add(float64(len(ids)))
	r.mInjected[thief].Add(float64(len(ids)))
	r.stolen.Add(int64(len(ids)))
	return len(ids)
}

// Stop drains every shard concurrently: each loop refuses new work,
// finishes everything accepted, and only when all P loops have drained
// does Stop return. The rebalancer is quiesced first — Stop joins the
// goroutine, waiting out any in-flight migration — so the drain starts
// with every accepted job sitting on exactly one shard. Shards then
// drain independently — there is no cross-shard work left, so no
// ordering between them matters; the router-level contract is simply
// "no accepted job anywhere is stranded".
func (r *Router) Stop(ctx context.Context) error {
	r.stealOnce.Do(func() { close(r.stealStop) })
	if r.stealRun.Load() {
		<-r.stealDone
	}
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for k, s := range r.shards {
		wg.Add(1)
		go func(k int, s *service.Service) {
			defer wg.Done()
			errs[k] = s.Stop(ctx)
		}(k, s)
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err == nil {
		// Every loop drained: every accepted job has a durable
		// `completed` record, so the segments can be flushed and closed.
		// On a failed drain the journals stay open (and on disk) — a
		// subsequent restart replays the unfinished jobs.
		err = r.closeJournals()
	}
	return err
}

// Results returns every shard's finalized engine metrics, in shard
// order. It fails with service.ErrNotDrained if any shard's loop is
// still running (Stop timed out or was never called).
func (r *Router) Results() ([]*sim.Result, error) {
	out := make([]*sim.Result, len(r.shards))
	for k, s := range r.shards {
		res, err := s.Result()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		out[k] = res
	}
	return out, nil
}

// Metrics returns the deployment's one registry: every shard's series
// and the router's own (/metrics goes through WriteMetrics, which first
// refreshes the scrape-time gauges).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// WriteMetrics renders the registry as one Prometheus exposition.
func (r *Router) WriteMetrics(w io.Writer) error {
	for _, s := range r.shards {
		s.RefreshGauges()
	}
	return r.reg.Write(w)
}

// Re-exported sentinel errors so router callers need not import the
// service package for errors.Is checks.
var (
	ErrQueueFull       = service.ErrQueueFull
	ErrStopped         = service.ErrStopped
	ErrAdmissionDenied = service.ErrAdmissionDenied
)
