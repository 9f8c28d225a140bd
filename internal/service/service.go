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
// backpressure, not silent dropping; a caller that wants to wait
// retries, as the client SDK does on the server's Retry-After.
//
// With Config.Journal set, every transition is appended to a write-ahead
// log in one of the journal's two classes of record. What would lose a
// job if lost is awaited: a submission is acknowledged only after the
// Commit covering its `submitted` record returns, and Restore and Absorb
// commit what they re-journal. Everything else — `admitted`,
// `completed`, `stolen`, a migration's `injected` — is lazy: appended
// under the service mutex and made durable by the next awaited commit
// or by the journal's own bounded flush, whichever comes first. When a
// lazy record is synced is the journal's decision alone; the scheduling
// loop never waits for the disk.
//
// A Service is also one shard of a sharded deployment (internal/shard):
// Config.Registry/MetricLabels let the router collect every shard's
// series in one view, and Config.IDBase/IDStride carve the job-ID space
// into disjoint residue classes so IDs stay globally unique without
// cross-shard coordination. Donate lets the router's rebalancer move
// still-queued jobs from one shard's queue to another's in one step
// under both services' locks, without either engine being touched by a
// foreign goroutine.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

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
	// a crash-safe write-ahead log, in the journal's two classes of
	// record: `submitted` (with the full spec) is awaited — made durable
	// before a submission is acknowledged, as are the records Restore
	// and Absorb write — and `admitted`, `completed`, `stolen` and a
	// migration's `injected` are lazy: appended and left to the next
	// awaited commit or, on a quiet daemon, to the journal's own bounded
	// flush. The service never decides when a lazy record is synced and
	// its scheduling loop never waits for the disk. A nil
	// Journal keeps today's in-memory behavior bit-for-bit. The caller
	// owns the journal (Open/Close and startup replay via Restore); the
	// service only appends. A journal write failure fails the service —
	// the durability contract is broken, and failing loudly beats
	// acknowledging submissions it can no longer promise to keep.
	Journal *journal.Journal
}

// DefaultQueueCap is the admission-queue bound when Config.QueueCap is 0.
const DefaultQueueCap = 1024

// maxSlots is the engine's runaway-clock guard: effectively unbounded,
// as the daemon runs until stopped.
const maxSlots = int64(1) << 62

// Service is the online scheduling daemon core. Create with New, start
// with Start, submit with SubmitNowait, stop with Stop.
type Service struct {
	cfg   Config
	eng   *sim.Engine
	subCh chan *workload.Job
	epoch time.Time // New's instant: the zero of every jobRecord's stage clock

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool

	mu       sync.RWMutex
	stopping bool // guarded by mu: serializes SubmitNowait against drain exit
	// jobs holds every queued, admitted and running job's record and the
	// completed ones the finished ring still names (retireLocked).
	jobs     map[workload.JobID]*jobRecord
	finished []workload.JobID // ring of the newest completed IDs in jobs
	finOld   int              // index of the oldest entry once the ring is full
	nextID   workload.JobID
	counts   Counts
	tasksOut int64           // outstanding task volume of accepted, unfinished jobs
	snap     ClusterSnapshot // written in place by publish, Servers included; Snapshot copies
	err      error
	jnlStat  JournalStatus // guarded by mu; zero when cfg.Journal is nil

	// The series this service updates itself. Every other series it
	// registers restates a number kept above (or by the journal) and is
	// read from it at scrape time. A donation moves Counts.Submitted but
	// not mSubmitted, so that one counter is its own.
	reg        *metrics.Registry
	mSubmitted *metrics.Counter
	mJCT       *metrics.Histogram
	// Wall-clock time a job spent in each stage it passed through on
	// this service, one series of dollymp_stage_seconds per stage.
	mJournalWait, mQueueWait, mAdmitToStart, mStartToComplete *metrics.Histogram
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
		cfg:    cfg,
		epoch:  time.Now(),
		subCh:  make(chan *workload.Job, cfg.QueueCap),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		jobs:   make(map[workload.JobID]*jobRecord),
		nextID: cfg.IDBase,
		reg:    cfg.Registry,
	}
	base := cfg.MetricLabels
	lbl := func(extra metrics.Labels) metrics.Labels { return metrics.Union(base, extra) }
	// locked reads one number under mu at scrape time.
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return read()
		}
	}
	s.mSubmitted = s.reg.Counter("dollymp_jobs_submitted_total", "Jobs accepted into the admission queue.", lbl(nil))
	s.reg.CounterFunc("dollymp_jobs_admitted_total", "Jobs injected into the running engine.", lbl(nil),
		locked(func() float64 { return float64(s.counts.Admitted) }))
	s.reg.CounterFunc("dollymp_jobs_completed_total", "Jobs that finished with a stamped JCT.", lbl(nil),
		locked(func() float64 { return float64(s.counts.Completed) }))
	s.reg.CounterFunc("dollymp_jobs_rejected_total", "Submissions rejected by queue backpressure.", lbl(nil),
		locked(func() float64 { return float64(s.counts.Rejected) }))
	s.reg.GaugeFunc("dollymp_queue_depth", "Jobs waiting in the admission queue.", lbl(nil),
		func() float64 { return float64(len(s.subCh)) })
	s.reg.GaugeFunc("dollymp_active_jobs", "Arrived, unfinished jobs in the engine.", lbl(nil),
		locked(func() float64 { return float64(s.snap.ActiveJobs) }))
	s.reg.GaugeFunc("dollymp_virtual_clock_slots", "Engine virtual time in slots.", lbl(nil),
		locked(func() float64 { return float64(s.snap.Clock) }))
	s.reg.GaugeFunc("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "cpu"}),
		locked(func() float64 { return s.snap.UtilizationCPU }))
	s.reg.GaugeFunc("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "mem"}),
		locked(func() float64 { return s.snap.UtilizationMem }))
	s.mJCT = s.reg.Histogram("dollymp_job_completion_slots", "Job completion time (flowtime) in slots.",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}, lbl(nil))
	stage := func(name string) *metrics.Histogram {
		return s.reg.Histogram("dollymp_stage_seconds", "Wall-clock seconds a job spent in one stage of its path through this service.",
			[]float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 10e-3, 100e-3}, lbl(metrics.Labels{"stage": name}))
	}
	s.mJournalWait = stage("journal_wait")
	s.mQueueWait = stage("queue_wait")
	s.mAdmitToStart = stage("admit_to_start")
	s.mStartToComplete = stage("start_to_complete")
	// Journal series exist only on a journaled service: registering them
	// unconditionally would change the exposition of an unjournaled one.
	if jnl := cfg.Journal; jnl != nil {
		s.jnlStat.Enabled = true
		s.reg.CounterFunc("dollymp_journal_records_total", "Journal records appended by this process.", lbl(nil),
			locked(func() float64 { return float64(s.jnlStat.Records) }))
		s.reg.GaugeFunc("dollymp_journal_replayed_jobs", "Jobs restored from the journal at startup.", lbl(nil),
			locked(func() float64 { return float64(s.jnlStat.ReplayedJobs) }))
		s.reg.CounterFunc("dollymp_journal_fsyncs_total", "Fsyncs issued on the journal segment by this process.", lbl(nil),
			func() float64 { return float64(jnl.Stats().Fsyncs) })
		s.reg.CounterFunc("dollymp_journal_fsync_seconds_total", "Summed duration of those fsyncs.", lbl(nil),
			func() float64 { return jnl.Stats().FsyncTime.Seconds() })
	}

	eng, err := sim.New(sim.Config{
		Cluster:       cfg.Cluster,
		Scheduler:     cfg.Scheduler,
		Seed:          cfg.Seed,
		Deterministic: cfg.Deterministic,
		MaxSlots:      maxSlots,
		Online:        true,
		Observe:       s.observe,
		// Finished jobs fold into Result.Digest: the engine keeps no
		// record per job, as the service keeps only its ring.
		CompactJobs: true,
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

// WriteMetrics renders the service's registry as Prometheus text. Part
// of the API interface shared with the shard router.
func (s *Service) WriteMetrics(w io.Writer) error { return s.reg.Write(w) }

// journalLocked appends one record to the configured journal (a no-op
// returning 0 when journaling is off). Callers hold mu, which gives the
// journal the same total order as the in-memory lifecycle. A caller
// that must not proceed until the record is durable awaits a Commit
// covering seq; every other caller drops seq, and the journal syncs the
// record within its flush delay. A failed append fails
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
	return seq, nil
}

// Stop begins a graceful drain: no new submissions are accepted, queued
// jobs are still admitted, and the loop runs until every in-flight job
// completes (or ctx expires, in which case the loop is left running and
// the context error returned).
func (s *Service) Stop(ctx context.Context) error {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	// A never-started service must still drain, so the loop is launched
	// here.
	s.Start()
	s.stopOnce.Do(func() { close(s.stopCh) })
	select {
	case <-s.doneCh:
		return s.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result finalizes and returns the engine's accumulated metrics. The
// engine runs with sim.Config.CompactJobs, so the finished jobs are in
// Completed and Digest (exact flowtime count, sum, min and max, and
// log-bucket histograms) and Jobs is empty. It is only valid once the
// scheduling loop has exited (Stop returned nil); while the loop still
// runs — e.g. Stop gave up on an expired context — it returns
// ErrNotDrained instead of touching the live engine.
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
	for {
		// Admit everything waiting, so submissions land at the next
		// slot boundary rather than one event later.
		for {
			select {
			case j := <-s.subCh:
				s.admit(j)
				continue
			default:
			}
			break
		}
		if s.Err() != nil {
			return
		}
		if s.eng.Idle() {
			s.publish()
			// The exit decision reads under the lock SubmitNowait and Donate
			// enqueue under, so every accepted job is either visible in
			// the queue here or arrived after stopping was set and was
			// refused.
			s.mu.RLock()
			stopping, empty := s.stopping, len(s.subCh) == 0
			s.mu.RUnlock()
			if stopping {
				if empty {
					return // drained: queue empty, engine idle
				}
				continue // queue refilled before stop; drain it
			}
			// Nothing to simulate: block until work or stop arrives.
			select {
			case j := <-s.subCh:
				s.admit(j)
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

// admit injects one queued job into the engine. Its `admitted` record
// is lazy: the loop does not wait for the disk.
func (s *Service) admit(j *workload.Job) {
	arr, err := s.eng.InjectJob(j)
	if err != nil {
		// SubmitNowait validated the job and the ID space is service-owned,
		// so injection cannot fail; treat it as loop-fatal if it does.
		s.fail(fmt.Errorf("service: admit job %d: %w", j.ID, err))
		return
	}
	s.mu.Lock()
	if rec := s.jobs[j.ID]; rec != nil {
		rec.State = StateAdmitted
		rec.Arrival = arr
		s.leaveStage(rec, s.mQueueWait)
	}
	s.counts.Admitted++
	// A failed append has failed the service; the loop exits on Err.
	_, _ = s.journalLocked(journal.Record{Op: journal.OpAdmitted, ID: j.ID, Arrival: arr})
	s.mu.Unlock()
}

// leaveStage observes how long the job spent in the stage it is leaving
// and starts the clock of the next one. Caller holds mu.
func (s *Service) leaveStage(rec *jobRecord, stage *metrics.Histogram) {
	now := time.Since(s.epoch)
	stage.Observe((now - rec.since).Seconds())
	rec.since = now
}

// observe is the engine's observer: it runs inside Engine.Step, on the
// loop goroutine, and moves a job's record at its first placement and at
// its completion.
func (s *Service) observe(o *sim.Observation) {
	switch o.Kind {
	case sim.TraceJobStart:
		s.mu.Lock()
		if rec := s.jobs[o.Ref.Job]; rec != nil {
			rec.State = StateRunning
			rec.FirstStart = o.Slot
			s.leaveStage(rec, s.mAdmitToStart)
		}
		s.mu.Unlock()
	case sim.TraceJobDone:
		m := o.Job
		s.mu.Lock()
		if rec := s.jobs[m.ID]; rec != nil {
			rec.State = StateCompleted
			rec.Finish = m.Finish
			rec.Flowtime = m.Flowtime
			s.tasksOut -= int64(rec.Tasks)
			s.leaveStage(rec, s.mStartToComplete)
			s.retireLocked(m.ID)
		}
		s.counts.Completed++
		s.mJCT.Observe(float64(m.Flowtime))
		// The completed record is lazy: losing it to a crash inside the
		// journal's flush delay re-runs the job after replay (at-least-once),
		// it never loses one.
		// A failed append has failed the service; the loop exits on Err.
		_, _ = s.journalLocked(journal.Record{Op: journal.OpCompleted, ID: m.ID, Finish: m.Finish, Flowtime: m.Flowtime})
		s.mu.Unlock()
	}
}

// finishedKept is how many completed jobs' records a service keeps. The
// counts and the JCT histogram fold every job; a lookup of an older
// one answers StateGone.
const finishedKept = 1024

// retireLocked enters a completed job, whose record is in jobs, into
// the finished ring, and once the ring is full forgets the record of
// the oldest completed job it names. Only completed jobs enter it, so
// a queued, admitted or running record is never forgotten. Caller
// holds mu.
func (s *Service) retireLocked(id workload.JobID) {
	if len(s.finished) < finishedKept {
		s.finished = append(s.finished, id)
		return
	}
	delete(s.jobs, s.finished[s.finOld])
	s.finished[s.finOld] = id
	s.finOld = (s.finOld + 1) % finishedKept
}

// publish refreshes the shared snapshot from engine state, in place: a
// step changes a few servers' occupancy, and the one reader of the
// per-server view (Snapshot) is rare, so the copy is the reader's. Runs
// on the loop goroutine, which is the only reader of the cluster.
func (s *Service) publish() {
	clock := s.eng.Clock()
	used, total := s.cfg.Cluster.TotalUsed(), s.cfg.Cluster.Total()
	var utilCPU, utilMem float64
	if total.CPUMilli > 0 {
		utilCPU = float64(used.CPUMilli) / float64(total.CPUMilli)
	}
	if total.MemMiB > 0 {
		utilMem = float64(used.MemMiB) / float64(total.MemMiB)
	}
	s.mu.Lock()
	if clock < s.snap.Clock {
		s.mu.Unlock()
		s.fail(fmt.Errorf("service: virtual clock moved backwards: %d -> %d", s.snap.Clock, clock))
		return
	}
	s.snap.Clock = clock
	s.snap.ActiveJobs = s.eng.ActiveJobs()
	s.snap.PendingArrival = s.eng.PendingArrivals()
	s.snap.UtilizationCPU, s.snap.UtilizationMem = utilCPU, utilMem
	for i, srv := range s.cfg.Cluster.Servers() {
		used := srv.Used()
		info := &s.snap.Servers[i]
		info.UsedCPU, info.UsedMem, info.Failed = used.CPUMilli, used.MemMiB, srv.Failed()
	}
	s.mu.Unlock()
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
}

// serverInfos builds the per-server view New hands to publish, which
// keeps the occupancy fields current from then on.
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
