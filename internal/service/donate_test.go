package service

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// newShardService builds a stopped service carved into a residue class,
// the way the shard router configures its partitions.
func newShardService(t *testing.T, queueCap, base, stride int) *Service {
	t.Helper()
	s, err := New(Config{
		Cluster:       cluster.Uniform(4, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		IDBase:        workload.JobID(base),
		IDStride:      stride,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitN queues n jobs on a stopped service and returns their IDs.
func submitN(t *testing.T, s *Service, n int) []workload.JobID {
	t.Helper()
	ids := make([]workload.JobID, n)
	for i := range ids {
		id, err := s.SubmitNowait(testJob(2, 3))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestDonateExtractsAndAccounts: donated jobs leave the donor's queue,
// lifecycle map, and load accounting in one atomic step.
func TestDonateExtractsAndAccounts(t *testing.T) {
	s := newShardService(t, 8, 1, 2) // not started: jobs stay queued
	thief := newShardService(t, 8, 2, 2)
	ids := submitN(t, s, 5)
	moved := s.Donate(thief, 3)
	if len(moved) != 3 {
		t.Fatalf("donated %d jobs, want 3", len(moved))
	}
	// FIFO: the oldest queued jobs move, keeping their IDs.
	for i, id := range moved {
		if id != ids[i] {
			t.Errorf("donated job %d has ID %d, want %d", i, id, ids[i])
		}
		if _, ok := s.Job(id); ok {
			t.Errorf("donated job %d still visible on the donor", id)
		}
	}
	l := s.Load()
	if l.QueueDepth != 2 || l.Jobs != 2 || l.Tasks != 4 {
		t.Fatalf("donor load after donation: %+v, want {2 2 4}", l)
	}
	if c := s.Counts(); c.Submitted != 2 {
		t.Fatalf("donor Submitted %d after donation, want 2", c.Submitted)
	}
	// Over-asking moves what's there; an empty queue, itself, or a
	// service of the same ID class moves nothing.
	if rest := s.Donate(thief, 10); len(rest) != 2 {
		t.Fatalf("second donation moved %d, want 2", len(rest))
	}
	if extra := s.Donate(thief, 1); extra != nil {
		t.Fatalf("donation from an empty queue returned %v", extra)
	}
	if self := thief.Donate(thief, 1); self != nil {
		t.Fatalf("self-donation returned %v", self)
	}
	if same := thief.Donate(newShardService(t, 8, 2, 2), 1); same != nil {
		t.Fatalf("donation within one ID class returned %v", same)
	}
	s.Start()
	stopDrained(t, s)
	if c := s.Counts(); c.Submitted != 0 || c.Completed != 0 {
		t.Fatalf("fully-robbed service drained with %+v", c)
	}
}

// TestDonateMigratesLifecycle: a donation into a thief in a different
// residue class keeps IDs, runs the jobs to completion on the thief, and
// keeps the deployment-wide accounting invariant.
func TestDonateMigratesLifecycle(t *testing.T) {
	victim := newShardService(t, 8, 1, 2) // IDs 1,3,5,...
	thief := newShardService(t, 8, 2, 2)  // IDs 2,4,6,...
	submitN(t, victim, 4)
	ids := victim.Donate(thief, 3)
	if len(ids) != 3 {
		t.Fatalf("thief took %d of 3", len(ids))
	}
	for _, id := range ids {
		info, ok := thief.Job(id)
		if !ok || info.State != StateQueued {
			t.Fatalf("migrated job %d on thief: ok=%v info=%+v", id, ok, info)
		}
	}
	if c := thief.Counts(); c.Submitted != 3 {
		t.Fatalf("thief Submitted %d, want 3", c.Submitted)
	}
	victim.Start()
	thief.Start()
	stopDrained(t, victim)
	stopDrained(t, thief)
	vc, tc := victim.Counts(), thief.Counts()
	if vc.Submitted+tc.Submitted != 4 || vc.Completed+tc.Completed != 4 {
		t.Fatalf("accounting drifted: victim %+v thief %+v", vc, tc)
	}
	for _, id := range ids {
		info, ok := thief.Job(id)
		if !ok || info.State != StateCompleted || info.Flowtime < 0 {
			t.Fatalf("migrated job %d after drain: ok=%v info=%+v", id, ok, info)
		}
	}
}

// TestDonateStopsAtCapacity: a thief with room for 2 of 5 takes 2; the
// other 3 never leave the victim, and asking again moves none.
func TestDonateStopsAtCapacity(t *testing.T) {
	victim := newShardService(t, 8, 1, 2)
	thief := newShardService(t, 2, 2, 2)
	ids := submitN(t, victim, 5)
	if moved := victim.Donate(thief, 5); len(moved) != 2 {
		t.Fatalf("thief with capacity 2 took %d", len(moved))
	}
	for _, id := range ids[2:] {
		if _, ok := thief.Job(id); ok {
			t.Fatalf("job %d registered on the full thief", id)
		}
		if info, ok := victim.Job(id); !ok || info.State != StateQueued {
			t.Fatalf("job %d left the victim: ok=%v info=%+v", id, ok, info)
		}
	}
	if l := victim.Load(); l.QueueDepth != 3 || l.Jobs != 3 || l.Tasks != 6 {
		t.Fatalf("victim load %+v, want {3 3 6}", l)
	}
	if again := victim.Donate(thief, 5); again != nil {
		t.Fatalf("full thief took %v", again)
	}
	victim.Start()
	thief.Start()
	stopDrained(t, victim)
	stopDrained(t, thief)
	if vc, tc := victim.Counts(), thief.Counts(); vc.Completed != 3 || tc.Completed != 2 {
		t.Fatalf("jobs lost in partial migration: victim %+v thief %+v", vc, tc)
	}
}

// TestDonationRefusedWhileDraining: a draining service neither donates
// nor accepts — its loop is committed to exactly the queue it has — and
// the live side of a refused donation keeps everything it had.
func TestDonationRefusedWhileDraining(t *testing.T) {
	drained := newShardService(t, 4, 1, 2)
	submitN(t, drained, 1)
	drained.Start()
	stopDrained(t, drained)
	live := newShardService(t, 4, 2, 2)
	ids := submitN(t, live, 2)

	if got := drained.Donate(live, 1); got != nil {
		t.Fatalf("drained service donated %v", got)
	}
	if got := live.Donate(drained, 2); got != nil {
		t.Fatalf("drained service accepted %v", got)
	}
	if l, c := live.Load(), live.Counts(); l.QueueDepth != 2 || l.Jobs != 2 || c.Submitted != 2 {
		t.Fatalf("refused donation moved the live side: load %+v counts %+v", l, c)
	}
	for _, id := range ids {
		if _, ok := live.Job(id); !ok {
			t.Fatalf("job %d lost its record to a refused donation", id)
		}
		if _, ok := drained.Job(id); ok {
			t.Fatalf("job %d registered on the drained service", id)
		}
	}
}

// TestDonateBothWaysConcurrently pins the lock order: A→B and B→A
// donations from two goroutines, with no router lock above them, must
// terminate, and the jobs they toss back and forth are conserved.
func TestDonateBothWaysConcurrently(t *testing.T) {
	const n = 16
	a := newShardService(t, 2*n, 1, 2)
	b := newShardService(t, 2*n, 2, 2)
	submitN(t, a, n)
	submitN(t, b, n)
	var wg sync.WaitGroup
	for _, pair := range [][2]*Service{{a, b}, {b, a}} {
		wg.Add(1)
		go func(from, to *Service) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				from.Donate(to, 3)
			}
		}(pair[0], pair[1])
	}
	wg.Wait()
	ac, bc := a.Counts(), b.Counts()
	la, lb := a.Load(), b.Load()
	if ac.Submitted+bc.Submitted != 2*n || la.QueueDepth+lb.QueueDepth != 2*n || la.Tasks+lb.Tasks != 4*n {
		t.Fatalf("jobs not conserved: a %+v %+v, b %+v %+v", ac, la, bc, lb)
	}
	if int64(la.QueueDepth) != ac.Submitted || int64(lb.QueueDepth) != bc.Submitted {
		t.Fatalf("queue and accounting disagree: a %+v %+v, b %+v %+v", ac, la, bc, lb)
	}
	a.Start()
	b.Start()
	stopDrained(t, a)
	stopDrained(t, b)
	if ac, bc = a.Counts(), b.Counts(); ac.Completed+bc.Completed != 2*n {
		t.Fatalf("jobs lost: a %+v b %+v", ac, bc)
	}
}

// TestDonateObservesDonorQueueWait: the time a donated job sat in the
// donor's queue — the straggling the rebalancer acts on — is observed
// into the donor's queue_wait series as the job leaves; the thief's
// clock starts afresh.
func TestDonateObservesDonorQueueWait(t *testing.T) {
	donor := newShardService(t, 4, 1, 2)
	thief := newShardService(t, 4, 2, 2)
	submitN(t, donor, 1)
	const wait = 20 * time.Millisecond
	time.Sleep(wait)
	if got := donor.Donate(thief, 1); len(got) != 1 {
		t.Fatalf("donated %d jobs", len(got))
	}
	if n, sum := donor.mQueueWait.Count(), donor.mQueueWait.Sum(); n != 1 || sum < wait.Seconds() {
		t.Fatalf("donor queue_wait: count %d sum %gs, want 1 observation of at least %v", n, sum, wait)
	}
	if n := thief.mQueueWait.Count(); n != 0 {
		t.Fatalf("thief queue_wait observed %d before admitting anything", n)
	}
	thief.Start()
	stopDrained(t, thief)
	if n := thief.mQueueWait.Count(); n != 1 {
		t.Fatalf("thief queue_wait count %d after running the job, want 1", n)
	}
}

// TestDonateThiefJournalFails: the thief's journal dies partway through
// a batch. The jobs moved before the failure live on the thief; the job
// the journal refused is back in the donor's queue with the rest, which
// never left; the thief has failed and the donor has not.
func TestDonateThiefJournalFails(t *testing.T) {
	donor := newShardService(t, 8, 1, 2)
	thief, jnl, _ := openJournalShard(t, filepath.Join(t.TempDir(), "seg.wal"), 8, 2)
	ids := submitN(t, donor, 5)
	if moved := donor.Donate(thief, 2); len(moved) != 2 {
		t.Fatalf("first half moved %d, want 2", len(moved))
	}
	if err := jnl.Crash(); err != nil {
		t.Fatal(err)
	}
	if moved := donor.Donate(thief, 3); moved != nil {
		t.Fatalf("thief with a dead journal took %v", moved)
	}
	if thief.Err() == nil {
		t.Error("thief survived its journal's failure")
	}
	if err := donor.Err(); err != nil {
		t.Errorf("donor failed with the thief: %v", err)
	}
	for i, id := range ids {
		_, onDonor := donor.Job(id)
		_, onThief := thief.Job(id)
		if wantThief := i < 2; onThief != wantThief || onDonor == wantThief {
			t.Errorf("job %d: on donor %v, on thief %v", id, onDonor, onThief)
		}
	}
	if l, c := donor.Load(), donor.Counts(); l.QueueDepth != 3 || l.Jobs != 3 || l.Tasks != 6 || c.Submitted != 3 {
		t.Fatalf("donor after the refusal: load %+v counts %+v", l, c)
	}
	donor.Start()
	stopDrained(t, donor)
	if c := donor.Counts(); c.Completed != 3 {
		t.Fatalf("donor ran %d of the 3 jobs it kept", c.Completed)
	}
}
