package shard

// Tests for journal takeover: a surviving router adopts a dead
// sibling's journal directory, completes the orphaned jobs, retires the
// segments, and refuses to adopt from a writer that is still alive.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// newMemberRouter builds a federated member owning the given residues
// of a wider global shard space, journaling into dir.
func newMemberRouter(t *testing.T, dir string, total int, residues []int, queueCap int) *Router {
	t.Helper()
	r, err := New(Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		Shards:        len(residues),
		TotalShards:   total,
		Residues:      residues,
		NewScheduler:  newFifo,
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		Policy:        RouteP2C,
		JournalDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAdoptCompletesDeadMembersJobs is the kill-one-of-N core: member B
// dies with accepted jobs in its journal; member A adopts the
// directory, re-homes the jobs onto its own shards, completes them, and
// retires the segments so a second adoption finds nothing.
func TestAdoptCompletesDeadMembersJobs(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	const total = 4
	a := newMemberRouter(t, dirA, total, []int{0, 1}, 64)
	b := newMemberRouter(t, dirB, total, []int{2, 3}, 64)

	const n = 6
	var ids []int64
	for i := 0; i < n; i++ {
		id, err := b.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		// B's IDs must come from its own residue classes {2,3}.
		if res := (int(id) - 1) % total; res != 2 && res != 3 {
			t.Fatalf("member B allocated id %d (residue %d)", id, res)
		}
		ids = append(ids, int64(id))
	}
	// B dies before admitting anything: the accepted jobs exist only in
	// its journal segments.
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}

	a.Start()
	rep, err := a.Adopt(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != n || rep.Pending != n || rep.Completed != 0 || rep.Skipped != 0 {
		t.Fatalf("adopt report: %+v", rep)
	}
	if rep.Segments != 2 {
		t.Fatalf("adopted %d segments, want 2", rep.Segments)
	}
	// The adopted jobs are findable through A's lookup path and complete
	// under A's loops.
	for _, id := range ids {
		if _, ok := a.Job(workload.JobID(id)); !ok {
			t.Fatalf("adopted job %d not found on survivor", id)
		}
	}
	stopDrained(t, a)
	if c := a.Counts(); c.Submitted != n || c.Completed != n {
		t.Fatalf("adopted jobs lost: %+v", c)
	}
	js := a.JournalStatus()
	if js.ReplayedJobs != n || js.ReplayedPending != n {
		t.Fatalf("survivor journal status: %+v", js)
	}

	// The segments were renamed *.adopted: nothing live remains.
	segs, err := journal.ListSegments(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("live segments left after takeover: %v", segs)
	}
}

// TestAdoptRefusesLiveMember: while the "dead" member still holds its
// segment leases, adoption must abort with ErrLeased and absorb
// nothing — the gateway's death verdict is not trusted over the lease.
func TestAdoptRefusesLiveMember(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	a := newMemberRouter(t, dirA, 4, []int{0, 1}, 64)
	b := newMemberRouter(t, dirB, 4, []int{2, 3}, 64)
	if _, err := b.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	a.Start()
	rep, err := a.Adopt(dirB)
	if !journal.LeaseSupported() {
		t.Skip("no flock on this platform")
	}
	if !errors.Is(err, ErrLeased) {
		t.Fatalf("adopting a live member's dir: %v (report %+v)", err, rep)
	}
	if c := a.Counts(); c.Submitted != 0 {
		t.Fatalf("refused adoption absorbed jobs: %+v", c)
	}
	// B is untouched and still drains its own job.
	b.Start()
	stopDrained(t, b)
	if c := b.Counts(); c.Completed != 1 {
		t.Fatalf("live member lost its job: %+v", c)
	}
	stopDrained(t, a)
}

// TestAdoptOwnDirRefused: a member must never adopt its own journal.
func TestAdoptOwnDirRefused(t *testing.T) {
	dir := t.TempDir()
	a := newMemberRouter(t, dir, 2, []int{0, 1}, 16)
	if _, err := a.Adopt(dir); err == nil {
		t.Fatal("adopted own journal dir")
	}
	stopDrained(t, a)
}

// TestAdoptFailureKeepsOwnershipTruthful: a takeover that fails part
// way must leave the ownership map naming exactly the adopted jobs the
// shards hold. The batch for shard 0 opens with a job that shard
// already knows (Absorb skips it without counting it) and ends with one
// the survivor's journal refuses, so the absorbed count (2) is not the
// position Absorb stopped at (3); shard 1's batch is never attempted.
func TestAdoptFailureKeepsOwnershipTruthful(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	const total = 4
	a := newMemberRouter(t, dirA, total, []int{0, 1}, 64)

	// The dead member's residues are {2, 3}: on the survivor IDs 3, 7,
	// 11, 15 fall back to shard 0 and ID 4 to shard 1.
	known, refused, untried := workload.JobID(3), workload.JobID(15), workload.JobID(4)
	if _, err := a.shards[0].Absorb([]*journal.ReplayJob{
		{ID: known, Outcome: journal.OutcomePending, Job: testJob(1, 2)},
	}); err != nil {
		t.Fatal(err)
	}

	// The survivor re-journals an adopted job under its own ID. Pad the
	// last one so that record is one byte over the limit while the dead
	// member's, which carried job ID 0 inside the spec, is just on it.
	big := testJob(1, 2)
	probe := *big
	probe.ID = refused
	rec, err := json.Marshal(journal.Record{Op: journal.OpInjected, ID: refused, Job: &probe})
	if err != nil {
		t.Fatal(err)
	}
	big.Name = strings.Repeat("x", journal.MaxRecordBytes+1-len(rec)) + big.Name

	if err := os.MkdirAll(dirB, 0o755); err != nil {
		t.Fatal(err)
	}
	jnl, _, err := journal.Open(journal.SegmentPath(dirB, 2))
	if err != nil {
		t.Fatal(err)
	}
	specs := map[workload.JobID]*workload.Job{
		known: testJob(1, 2), 7: testJob(1, 2), 11: testJob(1, 2), refused: big, untried: testJob(1, 2),
	}
	for id, j := range specs {
		if _, err := jnl.Append(journal.Record{Op: journal.OpInjected, ID: id, Job: j}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := a.Adopt(dirB)
	if err == nil {
		t.Fatalf("adoption of an unjournalable job succeeded: %+v", rep)
	}
	if rep.Jobs != 2 {
		t.Fatalf("absorbed %d jobs before the failure, want 2", rep.Jobs)
	}
	for id := range specs {
		k, owned := a.owned[id]
		held := false
		for _, s := range a.shards {
			if _, ok := s.Job(id); ok {
				held = true
			}
		}
		if owned != held {
			t.Errorf("job %d: owned = %v (shard %d), held by a shard = %v", id, owned, k, held)
		}
		if want := id != refused && id != untried; held != want {
			t.Errorf("job %d: held = %v, want %v", id, held, want)
		}
	}
	if segs, _ := journal.ListSegments(dirB); len(segs) != 1 {
		t.Fatalf("failed takeover retired the directory: %v", segs)
	}
	_ = a.Crash()
}
