package service

// The write side: every way a job enters this service's admission queue
// — external submission, a sibling shard's Donate, and (in restore.go)
// journal replay — goes through enqueueLocked, so the ordering that
// makes intake crash-safe and race-free is stated once.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

// ErrQueueFull is returned by SubmitNowait when the admission queue is
// at capacity; the caller should retry later (HTTP 429).
var ErrQueueFull = errors.New("service: admission queue full")

// ErrStopped is returned by SubmitNowait after Stop has begun: the
// service is draining and accepts no new work.
var ErrStopped = errors.New("service: stopped")

// ErrAdmissionDenied is the sentinel every *AdmissionError unwraps to:
// the edge admission policy refused the job before it reached the
// queue. Unlike ErrQueueFull this is a policy decision, not a capacity
// fact — the HTTP layer maps it to 429 admission_denied so clients can
// distinguish "the system chose not to take you" from "the queue is
// physically full".
var ErrAdmissionDenied = errors.New("service: admission denied")

// AdmissionError carries the policy's denial verdict: the
// machine-readable reason and the server's retry hint, both surfaced in
// the HTTP error envelope. It unwraps to ErrAdmissionDenied.
type AdmissionError struct {
	// Reason is the policy's denial reason (admission.Reason*).
	Reason string
	// RetryAfter is the server's hint for when retrying is worth it;
	// zero means immediately.
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	if e.Reason == "" {
		return ErrAdmissionDenied.Error()
	}
	return fmt.Sprintf("%s (%s)", ErrAdmissionDenied.Error(), e.Reason)
}

// Unwrap makes errors.Is(err, ErrAdmissionDenied) work.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionDenied }

// ChargeAdmission is the edge-admission step both decision points — the
// shard router and the federation gateway — run on an external
// submission: the job is validated first, so a malformed submission
// never burns admission budget; then the policy (nil means unpoliced)
// is charged exactly once against the pressure view snap reports. A
// denial is counted through denied and returned as *AdmissionError.
func ChargeAdmission(ctx context.Context, p admission.Policy, snap admission.SnapshotProvider, j *workload.Job, denied func()) error {
	if err := validate(j); err != nil {
		return err
	}
	if p == nil {
		return nil
	}
	d := p.Admit(ctx, j, snap.AdmissionSnapshot())
	if d.Admit {
		return nil
	}
	denied()
	return &AdmissionError{Reason: d.Reason, RetryAfter: d.RetryAfter}
}

// validate is the first check of every external submission.
func validate(j *workload.Job) error {
	if j == nil {
		return errors.New("service: nil job")
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// enqueueLocked is the one step by which a job — already carrying its
// ID — enters this service's admission queue, and it owns the whole
// discipline; the caller holds mu and brings only its own precondition.
//
//   - Fullness is checked first: ErrQueueFull leaves no trace.
//   - The spec is journaled (and so marshalled) before the job is
//     visible anywhere: the channel send hands j to the loop, which
//     rewrites its arrival outside mu, and a job the journal refused
//     must not run. A journal failure has already failed the service
//     (journalLocked) when it is returned.
//   - The lifecycle record is registered before the send: the loop may
//     admit the job immediately.
//   - The send cannot block — space was checked and every sender
//     serializes on mu — and Counts.Submitted and the outstanding task
//     volume move in the same critical section, so Load never sees a
//     queue entry without its accounting.
//
// The returned sequence is durable only after a Commit covering it; 0
// when journaling is off. The submission metric is the caller's: a
// migrated job was already counted where it first arrived.
func (s *Service) enqueueLocked(j *workload.Job, op journal.Op) (seq uint64, err error) {
	if len(s.subCh) == cap(s.subCh) {
		return 0, ErrQueueFull
	}
	j.Arrival = 0 // clamped to the live clock at injection
	rec := queuedInfo(j)
	rec.since = time.Since(s.epoch) // the wait in this queue starts here
	if seq, err = s.journalLocked(journal.Record{Op: op, ID: j.ID, Job: j}); err != nil {
		return 0, err
	}
	s.jobs[j.ID] = rec
	s.subCh <- j
	s.counts.Submitted++
	s.tasksOut += int64(rec.Tasks)
	return seq, nil
}

// SubmitNowait validates a job, assigns it a fresh ID (any
// caller-provided ID is overwritten — the service owns its ID space),
// and enqueues it. It never blocks: a full queue returns ErrQueueFull.
// The service takes ownership of the job. The stopping check and the
// enqueue happen under one critical section, so a job accepted here is
// always seen by the drain — Stop never strands an accepted job. The
// edge policy is not the service's: the router in front of it charges
// that.
func (s *Service) SubmitNowait(j *workload.Job) (workload.JobID, error) {
	if err := validate(j); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	id := s.nextID
	j.ID = id
	seq, err := s.enqueueLocked(j, journal.OpSubmitted)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			// Counter and count move inside one critical section, so a
			// /metrics scrape never disagrees with /v1 accounting.
			s.counts.Rejected++
			s.mRejected.Inc()
		}
		s.mu.Unlock()
		return 0, err
	}
	// The ID is taken only now: a refused job leaves the allocator alone.
	s.nextID += workload.JobID(s.cfg.IDStride)
	s.mSubmitted.Inc()
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		// Group-commit outside the lock: the submission is acknowledged
		// only once its record is on disk, and concurrent submitters
		// share one fsync. The job is already queued; if the disk
		// refuses, the service fails loudly rather than keep accepting
		// work it cannot promise to remember.
		start := time.Now()
		if err := s.cfg.Journal.Commit(seq); err != nil {
			err = fmt.Errorf("service: journal submit %d: %w", id, err)
			s.fail(err)
			return 0, err
		}
		s.mJournalWait.Observe(time.Since(start).Seconds())
	}
	return id, nil
}

// Donate moves up to max still-queued jobs from s into to — the one
// sideways step of the shard rebalancer — and returns their IDs, which
// the jobs keep. Only jobs sitting in the admission queue move: once a
// loop has admitted a job its engine owns it for good, and a racing
// admit on the donor simply wins the job. Both services' locks are held
// for the whole transfer, lower IDBase first, so an A→B and a B→A
// donation cannot deadlock. Everything else follows from the two locks:
//
//   - The thief's room is counted under to.mu and every sender
//     serializes on it, so it cannot shrink: at most that many jobs leave
//     the donor, and what the thief has no room for never moves.
//   - stopping is set under mu, so neither side begins a drain
//     mid-transfer, and a loop's drain-exit decision takes the same lock:
//     a donated job is in the thief's queue before that decision or was
//     refused. A draining service neither donates nor accepts.
//   - Each job goes through the thief's enqueueLocked (spec journaled as
//     `injected`, no submission metric: it was counted where it first
//     arrived) before the donor forgets it, so it is never on neither
//     service or on both, and Counts.Submitted moves with it. Both
//     records are lazy; journal.Merge resolves either order reaching
//     the disk.
//
// Two services of one ID class (a service and itself included) exchange
// nothing: their IDs could collide, and the lock order needs distinct
// bases.
func (s *Service) Donate(to *Service, max int) []workload.JobID {
	if s.cfg.IDBase == to.cfg.IDBase {
		return nil
	}
	first, second := s, to
	if to.cfg.IDBase < s.cfg.IDBase {
		first, second = to, s
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if s.stopping || to.stopping {
		return nil
	}
	if room := cap(to.subCh) - len(to.subCh); max > room {
		max = room
	}
	var moved []workload.JobID
transfer:
	for len(moved) < max {
		select {
		case j := <-s.subCh:
			if _, err := to.enqueueLocked(j, journal.OpInjected); err != nil {
				// The thief's journal refused the job (and failed the
				// thief). Nothing about the move was recorded on either
				// side, so the job goes back into the slot it just left:
				// the send cannot block, every other sender waits on s.mu.
				s.subCh <- j
				break transfer
			}
			rec := s.jobs[j.ID]
			s.leaveStage(rec, s.mQueueWait) // this queue's share of the job's wait
			s.tasksOut -= int64(rec.Tasks)
			delete(s.jobs, j.ID)
			s.counts.Submitted--
			// A failed append fails the donor; the job is the thief's
			// either way, and replay dedupes it without the `stolen`.
			_, _ = s.journalLocked(journal.Record{Op: journal.OpStolen, ID: j.ID})
			moved = append(moved, j.ID)
		default:
			break transfer // queue empty, or the donor's loop took the rest
		}
	}
	return moved
}
