package shard

// Journal takeover: a surviving federation member absorbs a dead
// sibling's journal directory so the accepted jobs recorded there are
// not lost with the process. Adoption is refused while the segments are
// still flock-leased by a live writer — death detection is the lease,
// not the gateway's opinion — and the segments are renamed *.adopted
// only after every replayed job is re-journaled and committed into this
// member's own segments, so a takeover interrupted anywhere leaves the
// directory replayable by the next adopter (completed-wins merge makes
// double replay harmless).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dollymp/internal/journal"
)

// ErrLeased is re-exported so adoption callers need not import the
// journal package for errors.Is checks.
var ErrLeased = journal.ErrLeased

// AdoptReport summarizes one journal takeover.
type AdoptReport struct {
	// Dir is the adopted journal directory.
	Dir string `json:"dir"`
	// Segments is how many live segment files were absorbed and retired.
	Segments int `json:"segments"`
	// Jobs is how many jobs were absorbed (Pending re-enqueued,
	// Completed restored as history).
	Jobs      int `json:"jobs"`
	Pending   int `json:"pending"`
	Completed int `json:"completed"`
	// Skipped counts replayed jobs already known to this router (a
	// chained takeover replays work that migrated here earlier).
	Skipped int `json:"skipped"`
}

// Adopt replays every live segment in dir — a dead sibling member's
// journal directory — and absorbs the jobs into this router's shards:
// completed jobs as lifecycle history, unfinished jobs re-enqueued onto
// a deterministic local shard (their residue classes belong to the dead
// member, so the ownership map records where they landed). Everything
// absorbed is re-journaled here before the adopted segments are renamed
// *.adopted; a segment still leased by a live writer aborts the whole
// takeover with ErrLeased, absorbing nothing.
func (r *Router) Adopt(dir string) (AdoptReport, error) {
	rep := AdoptReport{Dir: dir}
	if r.cfg.JournalDir == "" {
		return rep, errors.New("shard: adopt: journaling is off")
	}
	own, err := filepath.Abs(r.cfg.JournalDir)
	if err != nil {
		return rep, fmt.Errorf("shard: adopt: %w", err)
	}
	target, err := filepath.Abs(dir)
	if err != nil {
		return rep, fmt.Errorf("shard: adopt: %w", err)
	}
	if own == target {
		return rep, errors.New("shard: adopt: refusing to adopt own journal dir")
	}
	if r.Draining() {
		return rep, ErrStopped
	}
	// One takeover at a time: two concurrent adoptions of the same dir
	// would double-absorb between replay and rename.
	r.adoptMu.Lock()
	defer r.adoptMu.Unlock()
	segs, err := journal.ListSegments(target)
	if err != nil {
		return rep, fmt.Errorf("shard: adopt: %w", err)
	}
	replays := make([]*journal.Replay, 0, len(segs))
	for _, path := range segs {
		sr, err := journal.AdoptSegment(path)
		if err != nil {
			// ErrLeased included: the "dead" member is alive and writing.
			return rep, fmt.Errorf("shard: adopt: %w", err)
		}
		replays = append(replays, sr)
	}
	merged := journal.Merge(replays...)

	// Bucket per local shard under the migration lock, skipping jobs a
	// previous migration or takeover already landed here, and register
	// ownership before absorbing — a lookup racing the absorb must find
	// the job's new home as soon as its shard registers it.
	r.migMu.Lock()
	perShard := make([][]*journal.ReplayJob, len(r.shards))
	for _, rj := range merged {
		if _, here := r.owned[rj.ID]; here {
			rep.Skipped++
			continue
		}
		k, home := r.homeShard(rj.ID)
		if home {
			if _, ok := r.shards[k].Job(rj.ID); ok {
				rep.Skipped++
				continue
			}
		} else {
			r.owned[rj.ID] = k
		}
		perShard[k] = append(perShard[k], rj)
		if rj.Outcome == journal.OutcomeCompleted {
			rep.Completed++
		} else {
			rep.Pending++
		}
	}
	var absorbErr error
	for k, jobs := range perShard {
		if len(jobs) == 0 {
			continue
		}
		n, err := r.shards[k].Absorb(jobs)
		rep.Jobs += n
		if err != nil {
			absorbErr = fmt.Errorf("shard %d: adopt: %w", k, err)
			break
		}
	}
	if absorbErr != nil {
		// Keep the ownership entries of the jobs that did land, and only
		// those, so a retry (or a later adopter of the still-live
		// directory) is not blinded by entries pointing at absent jobs.
		// Absorb's count leaves out the jobs its shard already knew, so
		// it does not say where in the batch it stopped, and the shards
		// after the failed one were never asked: the shards themselves
		// say what they hold.
		for k, jobs := range perShard {
			for _, rj := range jobs {
				if _, home := r.homeShard(rj.ID); home {
					continue
				}
				if _, held := r.shards[k].Job(rj.ID); !held {
					delete(r.owned, rj.ID)
				}
			}
		}
	}
	r.migMu.Unlock()
	if absorbErr != nil {
		return rep, absorbErr
	}

	// Everything is re-journaled and committed locally: retire the
	// adopted segments so a chained takeover of THIS member does not
	// drag the dead sibling's files along. ListSegments only matches
	// *.wal, so *.wal.adopted files are inert.
	for _, path := range segs {
		if err := os.Rename(path, path+".adopted"); err != nil {
			return rep, fmt.Errorf("shard: adopt: retire segment: %w", err)
		}
		rep.Segments++
	}
	return rep, nil
}
