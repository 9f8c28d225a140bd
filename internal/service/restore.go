package service

// Journal replay into a service: Restore at startup, Absorb at runtime
// when a dead peer's segments are adopted. Both take each replayed job
// through replayLocked; they differ in their preconditions and in what
// they re-journal.

import (
	"errors"
	"fmt"

	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

// replayLocked takes one replayed job into this service under its
// journaled ID. A completed job comes back as lifecycle history —
// record, counts and JCT observation, so counters stay consistent with
// /v1 across a restart or takeover. An unfinished job is re-enqueued
// exactly like a fresh submission and re-journaled as an `injected`
// record carrying its spec, so the segment it was replayed from can be
// retired. The engine is single-use, so replay goes through the
// admission queue rather than resurrecting engine state: a previously
// admitted job restarts from queued, its original arrival slot and
// partial progress intentionally gone. The ID allocator moves past the
// ID so new submissions never collide. Caller holds mu.
func (s *Service) replayLocked(rj *journal.ReplayJob) (seq uint64, err error) {
	if rj.Outcome == journal.OutcomeCompleted {
		// A completed job passed every stage: count each of them. Its
		// record enters the finished ring like a job finishing here.
		s.jobs[rj.ID] = completedInfo(rj)
		s.retireLocked(rj.ID)
		s.counts.Submitted++
		s.counts.Admitted++
		s.counts.Completed++
		s.mJCT.Observe(float64(rj.Flowtime))
	} else {
		if rj.Job == nil {
			return 0, fmt.Errorf("service: replayed job %d has no spec", rj.ID)
		}
		rj.Job.ID = rj.ID
		if seq, err = s.enqueueLocked(rj.Job, journal.OpInjected); err != nil {
			return 0, err
		}
		s.jnlStat.ReplayedPending++
	}
	s.mSubmitted.Inc()
	s.jnlStat.ReplayedJobs++
	s.bumpNextID(rj.ID)
	return seq, nil
}

// Restore seeds the service from replayed journal state; it must run
// after New and before Start. jobs come in ascending ID order, as
// journal.Merge returns them. Every job goes through replayLocked, and
// the re-enqueued ones are synced before Restore returns, so a segment
// inherited from a different shard topology can be retired: the job's
// spec now lives in this shard's own segment. A restart over a long
// journal keeps the records of the newest completed jobs only, as the
// finished ring would have; the counts fold every one. records and
// truncated are the segment-scan stats for status reporting.
func (s *Service) Restore(jobs []*journal.ReplayJob, records, truncated int64) error {
	if s.started.Load() {
		return errors.New("service: Restore after Start")
	}
	s.mu.Lock()
	var seq uint64
	var err error
	for _, rj := range jobs {
		if rj.ID < 1 || s.knownLocked(rj.ID) {
			err = fmt.Errorf("service: replayed job %d is invalid or duplicated", rj.ID)
			break
		}
		var sq uint64
		if sq, err = s.replayLocked(rj); err != nil {
			if errors.Is(err, ErrQueueFull) {
				err = fmt.Errorf("service: replayed backlog exceeds queue capacity %d at job %d (restart with a larger queue)",
					cap(s.subCh), rj.ID)
			}
			break
		}
		seq = max(seq, sq)
	}
	s.jnlStat.ReplayedRecords += records
	s.jnlStat.TruncatedBytes += truncated
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if s.cfg.Journal != nil && seq > 0 {
		if err := s.cfg.Journal.Commit(seq); err != nil {
			return fmt.Errorf("service: journal restore: %w", err)
		}
	}
	return nil
}

// Absorb is the runtime counterpart of Restore: it accepts jobs
// replayed from a dead peer's adopted journal segments while this
// service is live and scheduling, keeping their IDs from the dead
// peer's residue class. Everything absorbed is re-journaled into this
// service's own segment — pending jobs by replayLocked, completed ones
// here as `completed` records (with the spec as an `injected` record
// when the replay preserved one) — and committed before Absorb returns,
// so the adopted segments can be retired: this journal now replays
// alone.
//
// Jobs this service holds or issued are skipped (a chained takeover
// may replay work that migrated here earlier, and a completed job may
// have left the finished ring since). The whole batch is
// validated and capacity-checked first: if the pending subset does not
// fit the free queue space, nothing is absorbed and the caller can
// retry elsewhere — a half-adopted journal must not be retired.
// Returns how many jobs were absorbed (skips excluded).
func (s *Service) Absorb(jobs []*journal.ReplayJob) (int, error) {
	s.mu.Lock()
	absorbed, seq, err := s.absorbLocked(jobs)
	s.mu.Unlock()
	if err != nil {
		return absorbed, err
	}
	if s.cfg.Journal != nil && seq > 0 {
		// Durable before the caller retires the adopted segments: the
		// absorbed jobs' only remaining home is this journal.
		if err := s.cfg.Journal.Commit(seq); err != nil {
			err = fmt.Errorf("service: journal absorb: %w", err)
			s.fail(err)
			return absorbed, err
		}
	}
	return absorbed, nil
}

// absorbLocked is Absorb's critical section. It returns the highest
// journal sequence the caller must commit.
func (s *Service) absorbLocked(jobs []*journal.ReplayJob) (absorbed int, seq uint64, _ error) {
	if s.stopping {
		return 0, 0, ErrStopped
	}
	free := cap(s.subCh) - len(s.subCh)
	need := 0
	for _, rj := range jobs {
		if rj.ID < 1 {
			return 0, 0, fmt.Errorf("service: absorb: invalid job id %d", rj.ID)
		}
		if s.knownLocked(rj.ID) || rj.Outcome == journal.OutcomeCompleted {
			continue
		}
		if rj.Job == nil {
			return 0, 0, fmt.Errorf("service: absorb: pending job %d has no spec", rj.ID)
		}
		need++
	}
	if need > free {
		return 0, 0, fmt.Errorf("service: absorb: %d pending jobs exceed free queue space %d: %w", need, free, ErrQueueFull)
	}
	for _, rj := range jobs {
		if s.knownLocked(rj.ID) {
			continue
		}
		sq, err := s.replayLocked(rj)
		if err == nil && rj.Outcome == journal.OutcomeCompleted {
			if rj.Job != nil {
				_, err = s.journalLocked(journal.Record{Op: journal.OpInjected, ID: rj.ID, Job: rj.Job})
			}
			if err == nil {
				sq, err = s.journalLocked(journal.Record{Op: journal.OpCompleted, ID: rj.ID, Finish: rj.Finish, Flowtime: rj.Flowtime})
			}
		}
		if err != nil {
			return absorbed, seq, err
		}
		seq = max(seq, sq)
		absorbed++
	}
	return absorbed, seq, nil
}

// bumpNextID advances the ID allocator past a restored ID, staying on
// this service's residue class. Caller holds mu.
func (s *Service) bumpNextID(id workload.JobID) {
	if id < s.nextID {
		return
	}
	stride := workload.JobID(s.cfg.IDStride)
	d := (id - s.cfg.IDBase) % stride // ≥ 0: id ≥ nextID ≥ IDBase
	s.nextID = id + stride - d
}
