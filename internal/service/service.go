// Package service turns the batch simulator into a long-running online
// scheduling daemon: jobs are submitted while the cluster runs, enter a
// bounded admission queue, and are injected into the engine at the next
// virtual-slot boundary. The engine — single-use and goroutine-confined
// by contract — is owned by exactly one scheduling-loop goroutine; every
// other goroutine (HTTP handlers, submitters) communicates through the
// admission channel and reads immutable snapshots, so the service is
// safe under arbitrary concurrent submission without locking the engine.
//
// Job lifecycle: queued (accepted into the admission queue) → admitted
// (injected into the engine, arrival slot stamped) → running (first copy
// placed) → completed (flowtime/JCT stamped). A full queue rejects
// SubmitNowait with ErrQueueFull, which the HTTP layer maps to 429 —
// backpressure, not silent dropping; Submit instead waits for space
// until its context expires.
//
// A Service is also one shard of a sharded deployment (internal/shard):
// Config.Registry/MetricLabels let the router collect every shard's
// series in one view, and Config.IDBase/IDStride carve the job-ID space
// into disjoint residue classes so IDs stay globally unique without
// cross-shard coordination. The donation API (StealQueued/InjectQueued)
// lets the router's rebalancer migrate still-queued jobs between shards
// without either engine being touched by a foreign goroutine.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// ErrNotDrained is returned by Result while the scheduling loop is
// still running — a Stop whose context expired leaves the loop alive,
// and the engine's metrics are only consistent once it has exited.
var ErrNotDrained = errors.New("service: not drained")

// Config configures a Service.
type Config struct {
	// Cluster is the fleet to schedule onto. The service owns it; no
	// other goroutine may touch it after New.
	Cluster *cluster.Cluster
	// Scheduler is the policy; same contract as sim.Config.
	Scheduler sched.Scheduler
	// Seed drives the engine's stochastic draws.
	Seed uint64
	// Deterministic disables duration noise (tests, smoke runs).
	Deterministic bool
	// QueueCap bounds the admission queue; 0 means DefaultQueueCap.
	QueueCap int
	// MaxSlots aborts a runaway virtual clock; 0 means effectively
	// unbounded (the daemon runs until stopped).
	MaxSlots int64

	// Registry receives the service's metric series; nil means a
	// private registry. The shard router injects a shared registry so
	// every shard's series land in one exposition.
	Registry *metrics.Registry
	// MetricLabels are constant labels stamped on every series this
	// service registers (the router passes shard="k"). Nil is fine.
	MetricLabels metrics.Labels

	// IDBase and IDStride carve up the job-ID space: assigned IDs are
	// IDBase, IDBase+IDStride, IDBase+2·IDStride, ... Zero values mean
	// 1 and 1 (the whole space). The router gives shard k base k+1 and
	// stride P, so shard ownership of an ID is (id-1) mod P.
	IDBase   workload.JobID
	IDStride int

	// Journal, when non-nil, records every job lifecycle transition to
	// a crash-safe write-ahead log: `submitted` (with the full spec) is
	// made durable before a submission is acknowledged, each burst of
	// `admitted` records is committed once by the scheduling loop, and
	// `completed`, `stolen`, and `injected` ride later fsyncs. A nil
	// Journal keeps today's in-memory behavior bit-for-bit. The caller
	// owns the journal (Open/Close and startup replay via Restore); the
	// service only appends. A journal write failure fails the service —
	// the durability contract is broken, and failing loudly beats
	// acknowledging submissions it can no longer promise to keep.
	Journal *journal.Journal

	// Admission, when non-nil, is consulted before a submission may
	// enter the queue: a denial is returned as *AdmissionError (HTTP
	// 429 admission_denied) without assigning an ID or touching the
	// queue. Only external submissions are policed — the donation and
	// replay paths (StealQueued/InjectQueued/ForceRequeue/Restore/
	// Absorb) move work that was already admitted somewhere and bypass
	// the policy. In a sharded deployment the router owns the policy
	// instead, so a deployment-wide decision is charged once, not once
	// per spill attempt; set this only on a directly-driven service.
	Admission admission.Policy
}

// DefaultQueueCap is the admission-queue bound when Config.QueueCap is 0.
const DefaultQueueCap = 1024

// Service is the online scheduling daemon core. Create with New, start
// with Start, submit with Submit or SubmitNowait, stop with Stop.
type Service struct {
	cfg   Config
	eng   *sim.Engine
	subCh chan *workload.Job

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool

	mu         sync.RWMutex
	stopping   bool // guarded by mu: serializes Submit against drain exit
	loopExited bool // guarded by mu: the loop took its drain-exit decision
	jobs       map[workload.JobID]*JobInfo
	nextID     workload.JobID
	counts     Counts
	tasksOut   int64 // outstanding task volume of accepted, unfinished jobs
	clock      int64
	snap       ClusterSnapshot
	err        error
	admitCh    chan struct{} // closed+replaced on every admit: queue-space broadcast
	jnlStat    JournalStatus // guarded by mu; zero when cfg.Journal is nil

	reg        *metrics.Registry
	mSubmitted *metrics.Counter
	mAdmitted  *metrics.Counter
	mCompleted *metrics.Counter
	mRejected  *metrics.Counter
	// mDenied is nil unless cfg.Admission is set (registering it
	// unconditionally would change the exposition of policy-less
	// deployments); only the admission-deny path increments it.
	mDenied  *metrics.Counter
	mQueue   *metrics.Gauge
	mActive  *metrics.Gauge
	mClock   *metrics.Gauge
	mUtilCPU *metrics.Gauge
	mUtilMem *metrics.Gauge
	mJCT     *metrics.Histogram

	// Journal metrics; nil when cfg.Journal is nil (registering them
	// unconditionally would change the exposition of an unjournaled
	// service).
	mJnlRecords  *metrics.Counter
	mJnlReplayed *metrics.Gauge
}

// New validates the configuration and builds a stopped service; call
// Start to launch the scheduling loop.
func New(cfg Config) (*Service, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("service: queue capacity %d < 1", cfg.QueueCap)
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = int64(1) << 62
	}
	if cfg.IDBase == 0 {
		cfg.IDBase = 1
	}
	if cfg.IDStride == 0 {
		cfg.IDStride = 1
	}
	if cfg.IDBase < 1 || cfg.IDStride < 1 {
		return nil, fmt.Errorf("service: invalid ID space (base %d, stride %d)", cfg.IDBase, cfg.IDStride)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s := &Service{
		cfg:     cfg,
		subCh:   make(chan *workload.Job, cfg.QueueCap),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		jobs:    make(map[workload.JobID]*JobInfo),
		nextID:  cfg.IDBase,
		admitCh: make(chan struct{}),
		reg:     cfg.Registry,
	}
	base := cfg.MetricLabels
	lbl := func(extra metrics.Labels) metrics.Labels { return metrics.Union(base, extra) }
	s.mSubmitted = s.reg.Counter("dollymp_jobs_submitted_total", "Jobs accepted into the admission queue.", lbl(nil))
	s.mAdmitted = s.reg.Counter("dollymp_jobs_admitted_total", "Jobs injected into the running engine.", lbl(nil))
	s.mCompleted = s.reg.Counter("dollymp_jobs_completed_total", "Jobs that finished with a stamped JCT.", lbl(nil))
	s.mRejected = s.reg.Counter("dollymp_jobs_rejected_total", "Submissions rejected by queue backpressure.", lbl(nil))
	s.mQueue = s.reg.Gauge("dollymp_queue_depth", "Jobs waiting in the admission queue.", lbl(nil))
	s.mActive = s.reg.Gauge("dollymp_active_jobs", "Arrived, unfinished jobs in the engine.", lbl(nil))
	s.mClock = s.reg.Gauge("dollymp_virtual_clock_slots", "Engine virtual time in slots.", lbl(nil))
	s.mUtilCPU = s.reg.Gauge("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "cpu"}))
	s.mUtilMem = s.reg.Gauge("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "mem"}))
	s.mJCT = s.reg.Histogram("dollymp_job_completion_slots", "Job completion time (flowtime) in slots.",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}, lbl(nil))
	if cfg.Journal != nil {
		s.jnlStat.Enabled = true
		s.mJnlRecords = s.reg.Counter("dollymp_journal_records_total", "Journal records appended by this process.", lbl(nil))
		s.mJnlReplayed = s.reg.Gauge("dollymp_journal_replayed_jobs", "Jobs restored from the journal at startup.", lbl(nil))
	}
	if cfg.Admission != nil {
		s.mDenied = s.reg.Counter("dollymp_jobs_denied_total", "Submissions denied by the edge admission policy.", lbl(nil))
	}

	eng, err := sim.New(sim.Config{
		Cluster:       cfg.Cluster,
		Scheduler:     cfg.Scheduler,
		Seed:          cfg.Seed,
		Deterministic: cfg.Deterministic,
		MaxSlots:      cfg.MaxSlots,
		Online:        true,
		OnJobStart:    s.onJobStart,
		OnJobComplete: s.onJobComplete,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.snap = ClusterSnapshot{Scheduler: cfg.Scheduler.Name(), Shards: 1, Servers: serverInfos(cfg.Cluster)}
	return s, nil
}

// Start launches the scheduling loop. Idempotent.
func (s *Service) Start() {
	if s.started.CompareAndSwap(false, true) {
		go s.run()
	}
}

// Metrics returns the service's metric registry (for /metrics). When a
// registry was injected via Config.Registry this is that registry.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// RefreshGauges re-publishes gauges that drift between loop publishes
// (today: queue depth). Called at scrape time so an idle engine never
// serves a stale gauge.
func (s *Service) RefreshGauges() { s.mQueue.Set(float64(len(s.subCh))) }

// WriteMetrics renders the service's registry as Prometheus text. Part
// of the API interface shared with the shard router.
func (s *Service) WriteMetrics(w io.Writer) error {
	s.RefreshGauges()
	return s.reg.Write(w)
}

// journalLocked appends one record to the configured journal (a no-op
// returning 0 when journaling is off). Callers hold mu, which gives the
// journal the same total order as the in-memory lifecycle; the record
// is durable only after a Commit covering seq. A failed append fails
// the service here, in the same critical section — the durability
// contract is broken — so callers only decide what to skip.
func (s *Service) journalLocked(rec journal.Record) (seq uint64, err error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	seq, err = s.cfg.Journal.Append(rec)
	if err != nil {
		err = fmt.Errorf("service: journal %s %d: %w", rec.Op, rec.ID, err)
		s.failLocked(err)
		return 0, err
	}
	s.jnlStat.Records++
	s.mJnlRecords.Inc()
	return seq, nil
}

// Stop begins a graceful drain: no new submissions are accepted, queued
// jobs are still admitted, and the loop runs until every in-flight job
// completes (or ctx expires, in which case the loop is left running and
// the context error returned).
func (s *Service) Stop(ctx context.Context) error {
	s.Start() // a never-started service must still drain trivially
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	select {
	case <-s.doneCh:
		return s.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result finalizes and returns the engine's accumulated metrics. It is
// only valid once the scheduling loop has exited (Stop returned nil);
// while the loop still runs — e.g. Stop gave up on an expired context —
// it returns ErrNotDrained instead of touching the live engine.
func (s *Service) Result() (*sim.Result, error) {
	select {
	case <-s.doneCh:
		return s.eng.Finalize(), nil
	default:
		return nil, ErrNotDrained
	}
}

// run is the single-writer scheduling loop: the only goroutine that may
// touch the engine or the cluster after Start.
func (s *Service) run() {
	defer close(s.doneCh)
	// pending is the highest admitted-record journal sequence not yet
	// covered by a Commit. The loop admits a whole burst first and then
	// commits once, so under load the fsync cost of making admitted
	// records durable amortizes across the burst instead of being paid
	// per job (submitted records are still synced per-ack in submit).
	var pending uint64
	flush := func() {
		if pending == 0 {
			return
		}
		seq := pending
		pending = 0
		if err := s.cfg.Journal.Commit(seq); err != nil {
			s.fail(fmt.Errorf("service: journal admit commit: %w", err))
		}
	}
	for {
		// Admit everything waiting, so submissions land at the next
		// slot boundary rather than one event later.
		for {
			select {
			case j := <-s.subCh:
				if seq := s.admit(j); seq > pending {
					pending = seq
				}
				continue
			default:
			}
			break
		}
		flush()
		if s.Err() != nil {
			return
		}
		if s.eng.Idle() {
			s.publish()
			// The exit decision holds the lock Submit and the donation
			// API write under, so every accepted job is either visible
			// in the queue here or its submission/requeue ran after the
			// decision and was refused (stopping / loopExited).
			s.mu.Lock()
			stopping, empty := s.stopping, len(s.subCh) == 0
			if stopping && empty {
				s.loopExited = true
			}
			s.mu.Unlock()
			if stopping {
				if empty {
					return // drained: queue empty, engine idle
				}
				continue // queue refilled before stop; drain it
			}
			// Nothing to simulate: block until work or stop arrives. The
			// admit's journal record is committed by the flush at the top
			// of the next iteration, together with any burst that arrived
			// behind it.
			select {
			case j := <-s.subCh:
				if seq := s.admit(j); seq > pending {
					pending = seq
				}
			case <-s.stopCh:
			}
			continue
		}
		if _, err := s.eng.Step(); err != nil {
			s.fail(err)
			return
		}
		s.publish()
	}
}

// admit injects one queued job into the engine and returns the journal
// sequence of its admitted record (0 when journaling is off or the
// admit failed). The caller batches Commit across a burst of admits.
func (s *Service) admit(j *workload.Job) uint64 {
	arr, err := s.eng.InjectJob(j)
	if err != nil {
		// Submit validated the job and the ID space is service-owned,
		// so injection cannot fail; treat it as loop-fatal if it does.
		s.fail(fmt.Errorf("service: admit job %d: %w", j.ID, err))
		return 0
	}
	s.mu.Lock()
	if info := s.jobs[j.ID]; info != nil {
		info.State = StateAdmitted
		info.Arrival = arr
	}
	s.counts.Admitted++
	s.mAdmitted.Inc() // same critical section as counts: scrapes agree with /v1
	// A failed append has failed the service; the loop exits on Err.
	seq, _ := s.journalLocked(journal.Record{Op: journal.OpAdmitted, ID: j.ID, Arrival: arr})
	s.wakeLocked() // the admit freed a queue slot
	s.mu.Unlock()
	return seq
}

// onJobStart runs inside Engine.Step, on the loop goroutine.
func (s *Service) onJobStart(id workload.JobID, slot int64) {
	s.mu.Lock()
	if info := s.jobs[id]; info != nil {
		info.State = StateRunning
		info.FirstStart = slot
	}
	s.mu.Unlock()
}

// onJobComplete runs inside Engine.Step, on the loop goroutine.
func (s *Service) onJobComplete(m sim.JobMetrics) {
	s.mu.Lock()
	if info := s.jobs[m.ID]; info != nil {
		info.State = StateCompleted
		info.Finish = m.Finish
		info.Flowtime = m.Flowtime
		s.tasksOut -= int64(info.Tasks)
	}
	s.counts.Completed++
	s.mCompleted.Inc()
	s.mJCT.Observe(float64(m.Flowtime))
	// The completed record rides the next fsync: losing it to a crash
	// re-runs the job after replay (at-least-once), it never loses one.
	// A failed append has failed the service; the loop exits on Err.
	_, _ = s.journalLocked(journal.Record{Op: journal.OpCompleted, ID: m.ID, Finish: m.Finish, Flowtime: m.Flowtime})
	s.mu.Unlock()
}

// publish refreshes the shared snapshot and gauges from engine state.
// Runs on the loop goroutine, which is the only reader of the cluster.
func (s *Service) publish() {
	clock := s.eng.Clock()
	used, total := s.cfg.Cluster.TotalUsed(), s.cfg.Cluster.Total()
	snap := ClusterSnapshot{
		Scheduler:      s.cfg.Scheduler.Name(),
		Shards:         1,
		Clock:          clock,
		ActiveJobs:     s.eng.ActiveJobs(),
		PendingArrival: s.eng.PendingArrivals(),
		Servers:        serverInfos(s.cfg.Cluster),
	}
	if total.CPUMilli > 0 {
		snap.UtilizationCPU = float64(used.CPUMilli) / float64(total.CPUMilli)
	}
	if total.MemMiB > 0 {
		snap.UtilizationMem = float64(used.MemMiB) / float64(total.MemMiB)
	}
	s.mu.Lock()
	if clock < s.clock {
		s.mu.Unlock()
		s.fail(fmt.Errorf("service: virtual clock moved backwards: %d -> %d", s.clock, clock))
		return
	}
	s.clock = clock
	s.snap = snap
	s.mu.Unlock()

	s.mClock.Set(float64(clock))
	s.mActive.Set(float64(snap.ActiveJobs))
	s.mQueue.Set(float64(len(s.subCh)))
	s.mUtilCPU.Set(snap.UtilizationCPU)
	s.mUtilMem.Set(snap.UtilizationMem)
}

// fail records the service's terminal error (the first one wins) and
// begins a drain.
func (s *Service) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Service) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopping = true
	// Blocked Submit waiters must observe stopping and return ErrStopped
	// instead of waiting on a loop that is gone.
	s.wakeLocked()
}

// wakeLocked broadcasts to blocked Submit callers that the queue or the
// lifecycle changed: it closes the current admission channel and
// replaces it, so waiters that grabbed the old one wake and retry.
// Caller holds mu.
func (s *Service) wakeLocked() {
	close(s.admitCh)
	s.admitCh = make(chan struct{})
}

func serverInfos(c *cluster.Cluster) []ServerInfo {
	out := make([]ServerInfo, 0, c.Len())
	for _, srv := range c.Servers() {
		used := srv.Used()
		out = append(out, ServerInfo{
			ID: int(srv.ID), Name: srv.Name, Rack: srv.Rack, Speed: srv.Speed,
			CPUMilli: srv.Capacity.CPUMilli, MemMiB: srv.Capacity.MemMiB,
			UsedCPU: used.CPUMilli, UsedMem: used.MemMiB,
			Failed: srv.Failed(),
		})
	}
	return out
}
