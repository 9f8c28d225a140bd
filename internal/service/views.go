package service

// The read side: the view types every status surface serves, the Add
// methods that fold per-loop views into a deployment view, and the
// service's read accessors. The shard router folds its shards' views
// and the federation gateway folds its members' with the same Add
// methods, so the merge rules are stated once, here.

import (
	"sort"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

// JobState labels a job's position in the service lifecycle.
type JobState string

// Lifecycle states, in order.
const (
	StateQueued    JobState = "queued"
	StateAdmitted  JobState = "admitted"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
)

// StateGone is not a lifecycle state: Job stamps it on the record of an
// ID this service issued but no longer holds — a completed job that
// fell out of the finished ring, or a job donated to another service.
// No listed record carries it.
const StateGone JobState = "gone"

// ValidState reports whether s names a lifecycle state (the HTTP layer
// validates ?state= filters with it). The empty string is not valid,
// and neither is StateGone.
func ValidState(s JobState) bool {
	switch s {
	case StateQueued, StateAdmitted, StateRunning, StateCompleted:
		return true
	}
	return false
}

// JobInfo is the externally visible record of one submitted job. Slot
// fields are -1 until the lifecycle reaches them.
type JobInfo struct {
	ID   workload.JobID `json:"id"`
	Name string         `json:"name"`
	App  string         `json:"app"`
	// Tenant is the submitter label the job carried, if any — the key
	// per-tenant admission decisions and ?tenant= filters use.
	Tenant     string   `json:"tenant,omitempty"`
	State      JobState `json:"state"`
	Tasks      int      `json:"tasks"`
	Arrival    int64    `json:"arrival_slot"`
	FirstStart int64    `json:"first_start_slot"`
	Finish     int64    `json:"finish_slot"`
	// Flowtime is finish − arrival in slots: the job's JCT, the
	// paper's primary metric, stamped at completion.
	Flowtime int64 `json:"flowtime_slots"`
}

// jobRecord is the service's own record of one job: the visible
// JobInfo plus the stage clock. The stages a job passes through on this
// service follow one another — queued, admitted, running, completed —
// so one instant, when it entered the stage it is in, is all a record
// keeps (as an offset from Service.epoch: eight bytes on every job the
// service remembers, not a time.Time). leaveStage reads and resets it.
type jobRecord struct {
	JobInfo
	since time.Duration
}

// queuedInfo is the lifecycle record of a job entering the admission
// queue, whichever entry point brought it.
func queuedInfo(j *workload.Job) *jobRecord {
	return &jobRecord{JobInfo: JobInfo{
		ID: j.ID, Name: j.Name, App: j.App, Tenant: j.Tenant, State: StateQueued,
		Tasks: j.TotalTasks(), Arrival: -1, FirstStart: -1, Finish: -1, Flowtime: -1,
	}}
}

// completedInfo is the lifecycle record of a job a journal replay found
// finished. The spec is absent when the replay preserved only the
// completion.
func completedInfo(rj *journal.ReplayJob) *jobRecord {
	info := JobInfo{
		ID: rj.ID, State: StateCompleted,
		Arrival: rj.Finish - rj.Flowtime, FirstStart: -1,
		Finish: rj.Finish, Flowtime: rj.Flowtime,
	}
	if j := rj.Job; j != nil {
		info.Name, info.App, info.Tenant, info.Tasks = j.Name, j.App, j.Tenant, j.TotalTasks()
	}
	return &jobRecord{JobInfo: info}
}

// JobFilter selects jobs for Jobs. The zero value selects everything.
type JobFilter struct {
	// State keeps only jobs in that lifecycle state; empty keeps all.
	State JobState
	// Tenant keeps only jobs with that tenant label; empty keeps all.
	// (There is no way to select specifically tenant-less jobs — the
	// empty string means "no filter", matching ?tenant= semantics.)
	Tenant string
}

// Counts summarizes the service's job accounting.
type Counts struct {
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	// Denied counts submissions refused by the edge admission policy
	// (never assigned an ID; only the router, which owns the policy,
	// counts them); Rejected counts queue-full backpressure. omitempty
	// keeps policy-less deployments' JSON unchanged.
	Denied int64 `json:"denied,omitempty"`
}

// Add accumulates other into c (the router sums per-shard counts).
func (c *Counts) Add(other Counts) {
	c.Submitted += other.Submitted
	c.Admitted += other.Admitted
	c.Completed += other.Completed
	c.Rejected += other.Rejected
	c.Denied += other.Denied
}

// Load is a shard's routing signal: how much accepted-but-unfinished
// work it holds. The router compares loads lexicographically — queue
// depth first (jobs not even admitted yet), then outstanding task
// volume (admitted work still running).
type Load struct {
	// QueueDepth is the number of jobs waiting in the admission queue.
	QueueDepth int
	// Jobs is submitted − completed: accepted jobs not yet finished.
	Jobs int64
	// Tasks is the outstanding task volume: total tasks of accepted,
	// unfinished jobs.
	Tasks int64
}

// Less orders loads lexicographically by (queue depth, outstanding
// tasks, outstanding jobs): the power-of-two-choices comparison.
func (l Load) Less(other Load) bool {
	if l.QueueDepth != other.QueueDepth {
		return l.QueueDepth < other.QueueDepth
	}
	if l.Tasks != other.Tasks {
		return l.Tasks < other.Tasks
	}
	return l.Jobs < other.Jobs
}

// ShardStatus is one scheduling loop's slice of a /v1/shards response.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	QueueDepth int    `json:"queue_depth"`
	ActiveJobs int    `json:"active_jobs"`
	Clock      int64  `json:"clock_slots"`
	Draining   bool   `json:"draining"`
	Jobs       Counts `json:"jobs"`
	// ReplayedJobs counts jobs restored from this shard's journal at
	// startup (0 when journaling is off or the journal was empty).
	ReplayedJobs int64 `json:"replayed_jobs,omitempty"`
}

// JournalStatus is the recovery-state slice of a status response:
// whether intake is journaled, what this process has written, and what
// the startup replay recovered.
type JournalStatus struct {
	Enabled bool `json:"enabled"`
	// Records counts journal records appended by this process.
	Records int64 `json:"records_written"`
	// ReplayedRecords counts intact records scanned at startup.
	ReplayedRecords int64 `json:"replayed_records"`
	// ReplayedJobs counts jobs restored at startup (completed history
	// plus re-enqueued unfinished work); ReplayedPending is the
	// re-enqueued subset.
	ReplayedJobs    int64 `json:"replayed_jobs"`
	ReplayedPending int64 `json:"replayed_pending"`
	// TruncatedBytes counts torn-tail bytes dropped at startup.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Fsyncs counts fsyncs this process issued on the journal and
	// FsyncSeconds sums their duration; Fsyncs over Jobs.Submitted is
	// the fsyncs-per-acknowledged-job figure.
	Fsyncs       int64   `json:"fsyncs"`
	FsyncSeconds float64 `json:"fsync_seconds"`
	// Segments and StaleSegments describe the journal directory of a
	// sharded deployment: segments in use by this topology, and
	// leftover segments of a previous one replayed read-only. Only the
	// router sets them; both are 0 for a single journaled service.
	Segments      int `json:"segments,omitempty"`
	StaleSegments int `json:"stale_segments,omitempty"`
}

// Add accumulates other into js (the router sums per-shard status).
func (js *JournalStatus) Add(other JournalStatus) {
	js.Enabled = js.Enabled || other.Enabled
	js.Records += other.Records
	js.ReplayedRecords += other.ReplayedRecords
	js.ReplayedJobs += other.ReplayedJobs
	js.ReplayedPending += other.ReplayedPending
	js.TruncatedBytes += other.TruncatedBytes
	js.Fsyncs += other.Fsyncs
	js.FsyncSeconds += other.FsyncSeconds
	js.Segments += other.Segments
	js.StaleSegments += other.StaleSegments
}

// ServerInfo is one server's slice of a cluster snapshot.
type ServerInfo struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Rack     int     `json:"rack"`
	Speed    float64 `json:"speed"`
	CPUMilli int64   `json:"cpu_milli"`
	MemMiB   int64   `json:"mem_mib"`
	UsedCPU  int64   `json:"used_cpu_milli"`
	UsedMem  int64   `json:"used_mem_mib"`
	Failed   bool    `json:"failed"`
}

// ClusterSnapshot is a consistent read of cluster and queue state, taken
// by the scheduling loop after each step.
type ClusterSnapshot struct {
	Scheduler      string       `json:"scheduler"`
	Shards         int          `json:"shards"`
	Clock          int64        `json:"clock_slots"`
	ActiveJobs     int          `json:"active_jobs"`
	PendingArrival int          `json:"pending_arrivals"`
	QueueDepth     int          `json:"queue_depth"`
	Draining       bool         `json:"draining"`
	Jobs           Counts       `json:"jobs"`
	UtilizationCPU float64      `json:"utilization_cpu"`
	UtilizationMem float64      `json:"utilization_mem"`
	Servers        []ServerInfo `json:"servers"`
	// Journal exposes recovery state; nil when journaling is off, so
	// the snapshot of an unjournaled service is unchanged.
	Journal *JournalStatus `json:"journal,omitempty"`
}

// Add folds another loop's (or member's) snapshot into c — the one
// cluster-view merge, used by the shard router over its shards and by
// the federation gateway over its members. The scheduler name is the
// first one seen, the clock is the frontier (max), depths and job
// counts sum, Draining is true if anyone drains, journal status sums
// when other has one, servers concatenate in fold order, and
// utilization is recomputed over the union of servers. Shards is the
// caller's to set: only it knows the topology.
func (c *ClusterSnapshot) Add(other ClusterSnapshot) {
	if c.Scheduler == "" {
		c.Scheduler = other.Scheduler
	}
	c.Clock = max(c.Clock, other.Clock)
	c.ActiveJobs += other.ActiveJobs
	c.PendingArrival += other.PendingArrival
	c.QueueDepth += other.QueueDepth
	c.Draining = c.Draining || other.Draining
	c.Jobs.Add(other.Jobs)
	if other.Journal != nil {
		if c.Journal == nil {
			c.Journal = &JournalStatus{}
		}
		c.Journal.Add(*other.Journal)
	}
	c.Servers = append(c.Servers, other.Servers...)
	var usedCPU, usedMem, capCPU, capMem int64
	for _, srv := range c.Servers {
		usedCPU += srv.UsedCPU
		usedMem += srv.UsedMem
		capCPU += srv.CPUMilli
		capMem += srv.MemMiB
	}
	c.UtilizationCPU, c.UtilizationMem = 0, 0
	if capCPU > 0 {
		c.UtilizationCPU = float64(usedCPU) / float64(capCPU)
	}
	if capMem > 0 {
		c.UtilizationMem = float64(usedMem) / float64(capMem)
	}
}

// AdmissionStatus is the /v1/admission response: which edge policy
// guards the queue and its cumulative decision accounting.
type AdmissionStatus struct {
	// Policy names the active policy; "none" when submissions are
	// unpoliced.
	Policy string `json:"policy"`
	// Denied counts submissions this endpoint refused by policy (same
	// number as Counts.Denied).
	Denied int64 `json:"denied"`
	// Stats is the policy's own accounting (per-tenant breakdown for
	// fair policies); absent when Policy is "none".
	Stats *admission.Stats `json:"stats,omitempty"`
}

// AdmissionStatusOf builds one decision point's /v1/admission view from
// its policy (nil means unpoliced) and its own denial count.
func AdmissionStatusOf(p admission.Policy, denied int64) AdmissionStatus {
	if p == nil {
		return AdmissionStatus{Policy: "none", Denied: denied}
	}
	stats := p.Stats()
	return AdmissionStatus{Policy: p.Name(), Denied: denied, Stats: &stats}
}

// Add folds another endpoint's status into a (the gateway sums member
// views; policy names join with "+" when they differ).
func (a *AdmissionStatus) Add(other AdmissionStatus) {
	if a.Policy != other.Policy {
		if a.Policy == "" || a.Policy == "none" {
			a.Policy = other.Policy
		} else if other.Policy != "" && other.Policy != "none" {
			a.Policy += "+" + other.Policy
		}
	}
	a.Denied += other.Denied
	if other.Stats == nil {
		return
	}
	if a.Stats == nil {
		merged := *other.Stats
		a.Stats = &merged
		if other.Stats.Tenants != nil {
			a.Stats.Tenants = make(map[string]admission.TenantStats, len(other.Stats.Tenants))
			for k, v := range other.Stats.Tenants {
				a.Stats.Tenants[k] = v
			}
		}
		return
	}
	a.Stats.Admitted += other.Stats.Admitted
	a.Stats.Denied += other.Stats.Denied
	for k, v := range other.Stats.Tenants {
		if a.Stats.Tenants == nil {
			a.Stats.Tenants = make(map[string]admission.TenantStats)
		}
		t := a.Stats.Tenants[k]
		t.Admitted += v.Admitted
		t.Denied += v.Denied
		t.Weight = v.Weight
		a.Stats.Tenants[k] = t
	}
}

// Job returns the lifecycle record for one job. ok is false when the
// service does not hold the job; the record is then the zero JobInfo,
// or Gone(id) for an ID this service issued.
func (s *Service) Job(id workload.JobID) (JobInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rec, ok := s.jobs[id]; ok {
		return rec.JobInfo, true
	}
	if s.issuedLocked(id) {
		return Gone(id), false
	}
	return JobInfo{}, false
}

// Gone is the record a lookup returns for an ID that was issued but is
// no longer held: its ID, State StateGone, and nothing else.
func Gone(id workload.JobID) JobInfo { return JobInfo{ID: id, State: StateGone} }

// issuedLocked reports whether this service allocated id (or restored
// it into its own class): id is in its residue class and below the
// allocator. Caller holds mu.
func (s *Service) issuedLocked(id workload.JobID) bool {
	return id >= s.cfg.IDBase && id < s.nextID && (id-s.cfg.IDBase)%workload.JobID(s.cfg.IDStride) == 0
}

// knownLocked reports whether this service holds id or issued it.
// Caller holds mu.
func (s *Service) knownLocked(id workload.JobID) bool {
	return s.jobs[id] != nil || s.issuedLocked(id)
}

// Jobs returns the lifecycle records matching the filter, sorted by ID:
// every queued, admitted and running job, and the completed ones the
// finished ring still holds.
func (s *Service) Jobs(f JobFilter) []JobInfo {
	s.mu.RLock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, info := range s.jobs {
		if f.State != "" && info.State != f.State {
			continue
		}
		if f.Tenant != "" && info.Tenant != f.Tenant {
			continue
		}
		out = append(out, info.JobInfo)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns the current job accounting.
func (s *Service) Counts() Counts {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts
}

// Load returns the routing signal: queue depth plus outstanding job and
// task volume. Cheap enough for the router to call on every placement.
// All three fields are read under one critical section so p2c
// comparisons never see a torn (QueueDepth, Tasks) pair — the queue
// length and the accounting it must agree with change together under mu
// on the submit and donate paths.
func (s *Service) Load() Load {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Load{
		QueueDepth: len(s.subCh),
		Jobs:       s.counts.Submitted - s.counts.Completed,
		Tasks:      s.tasksOut,
	}
}

// Admission returns the edge-admission view for /v1/admission: a
// service polices nothing — the router in front of it owns the policy.
// Part of the API interface shared with the shard router and the
// gateway.
func (s *Service) Admission() AdmissionStatus { return AdmissionStatusOf(nil, 0) }

// Draining reports whether a drain has begun (Stop called or the loop
// failed). Exposed so the router and health checks see shard state
// without building a full snapshot.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stopping
}

// Ready reports whether the service is fully serving: the scheduling
// loop has been started and neither a drain nor a terminal error has
// begun. Restore runs before Start, so a journaled restart is not ready
// until its replay is finished and re-journaled. Part of the API
// interface (/readyz).
func (s *Service) Ready() bool {
	if !s.started.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.stopping && s.err == nil
}

// Status returns the service's slice of a /v1/shards response, with
// Shard left at 0 — the router stamps the index. The queue depth is
// snapshotted under the same critical section as the counts, so
// /v1/shards rows are internally consistent.
func (s *Service) Status() ShardStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ShardStatus{
		QueueDepth:   len(s.subCh),
		ActiveJobs:   s.snap.ActiveJobs,
		Clock:        s.snap.Clock,
		Draining:     s.stopping,
		Jobs:         s.counts,
		ReplayedJobs: s.jnlStat.ReplayedJobs,
	}
}

// Shards returns the single-loop view of /v1/shards: one entry. Part of
// the API interface shared with the shard router.
func (s *Service) Shards() []ShardStatus { return []ShardStatus{s.Status()} }

// Snapshot returns the most recent cluster/queue snapshot. The queue
// depth, counts, and draining flag are read live under one critical
// section; everything else is the state the loop published after its
// last step. The per-server view is a copy — the loop overwrites its own
// in place — so the caller owns what it gets.
func (s *Service) Snapshot() ClusterSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.snap
	snap.Servers = append([]ServerInfo(nil), s.snap.Servers...)
	snap.Jobs = s.counts
	snap.Draining = s.stopping
	snap.QueueDepth = len(s.subCh)
	if jnl := s.cfg.Journal; jnl != nil {
		js := s.jnlStat
		st := jnl.Stats()
		js.Fsyncs, js.FsyncSeconds = st.Fsyncs, st.FsyncTime.Seconds()
		snap.Journal = &js
	}
	return snap
}

// Err returns the scheduling loop's terminal error, if any.
func (s *Service) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.err
}
