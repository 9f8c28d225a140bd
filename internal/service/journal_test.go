package service

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/metrics"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// openJournalService opens (or reopens) a journal segment and builds a
// service writing to it, returning the startup replay so the test can
// drive Restore the way the shard router does.
func openJournalService(t *testing.T, path string, queueCap int) (*Service, *journal.Journal, *journal.Replay) {
	t.Helper()
	return openJournalShard(t, path, queueCap, 0)
}

// openJournalShard is openJournalService with the ID space starting at
// base: two services that donate to each other need distinct bases.
func openJournalShard(t *testing.T, path string, queueCap int, base workload.JobID) (*Service, *journal.Journal, *journal.Replay) {
	t.Helper()
	jnl, rep, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Cluster:       cluster.Uniform(8, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		IDBase:        base,
		Journal:       jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, jnl, rep
}

// TestServiceJournalReplayUnadmitted is the crash point between
// `submitted` and `admitted`: the daemon dies with jobs durably
// accepted but still queued. Replay must re-enqueue exactly those jobs,
// a fresh submission must not collide with their IDs, and a final
// replay must show every job completed exactly once.
func TestServiceJournalReplayUnadmitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	a, jnlA, _ := openJournalService(t, path, 16)
	for i := 0; i < 3; i++ {
		// Loop never started: accepted, journaled, never admitted.
		if _, err := a.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no drain, no flush — the fd (and its segment lease) dies
	// with the process. Submit already committed the `submitted`
	// records, so they are durable.
	if err := jnlA.Crash(); err != nil {
		t.Fatal(err)
	}

	b, jnl, rep := openJournalService(t, path, 16)
	if len(rep.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rep.Jobs))
	}
	if err := b.Restore(journal.Merge(rep), rep.Records, rep.Truncated); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	if snap.Journal == nil || snap.Journal.ReplayedJobs != 3 || snap.Journal.ReplayedPending != 3 {
		t.Fatalf("journal status: %+v", snap.Journal)
	}
	// The ID allocator must have advanced past the restored IDs 1..3.
	id, err := b.SubmitNowait(testJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("post-restore submission got ID %d, want 4", id)
	}
	b.Start()
	stopDrained(t, b)
	if c := b.Counts(); c.Submitted != 4 || c.Completed != 4 {
		t.Fatalf("counts after replayed drain: %+v", c)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Jobs) != 4 {
		t.Fatalf("final replay has %d jobs, want 4", len(rep2.Jobs))
	}
	for _, rj := range rep2.Jobs {
		if rj.Outcome != journal.OutcomeCompleted {
			t.Fatalf("job %d not completed after drain: %+v", rj.ID, rj)
		}
	}
}

// TestServiceJournalNoDuplicateCompleted: jobs that completed before
// the crash come back as history — counted, JCT-observed — and are
// never re-run.
func TestServiceJournalNoDuplicateCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	a, jnlA, _ := openJournalService(t, path, 16)
	a.Start()
	for i := 0; i < 2; i++ {
		if _, err := a.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stopDrained(t, a)
	// The `completed` records' shared fsync happened before the crash;
	// the crash itself releases the segment lease without closing clean.
	if err := jnlA.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jnlA.Crash(); err != nil {
		t.Fatal(err)
	}

	b, jnlB, rep := openJournalService(t, path, 16)
	if err := b.Restore(journal.Merge(rep), rep.Records, rep.Truncated); err != nil {
		t.Fatal(err)
	}
	if c := b.Counts(); c.Submitted != 2 || c.Completed != 2 {
		t.Fatalf("restored history counts: %+v", c)
	}
	if m := scrape(t, b); m["dollymp_jobs_completed_total"].Value != 2 || m["dollymp_jobs_submitted_total"].Value != 2 {
		t.Fatalf("restored history counters: submitted %v, completed %v",
			m["dollymp_jobs_submitted_total"].Value, m["dollymp_jobs_completed_total"].Value)
	}
	if info, ok := b.Job(1); !ok || info.State != StateCompleted {
		t.Fatalf("restored job 1: %+v (ok=%v)", info, ok)
	}
	snap := b.Snapshot()
	if snap.Journal.ReplayedJobs != 2 || snap.Journal.ReplayedPending != 0 {
		t.Fatalf("journal status: %+v", snap.Journal)
	}
	b.Start()
	if _, err := b.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	stopDrained(t, b)
	if c := b.Counts(); c.Submitted != 3 || c.Completed != 3 {
		t.Fatalf("counts after restart: %+v", c)
	}
	if err := jnlB.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Jobs) != 3 {
		t.Fatalf("final replay has %d jobs, want 3 (duplicate?)", len(rep2.Jobs))
	}
	for _, rj := range rep2.Jobs {
		if rj.Outcome != journal.OutcomeCompleted {
			t.Fatalf("job %d: %+v", rj.ID, rj)
		}
	}
}

// TestRestoredCompletedCountsAdmitted: a job the journal replays as
// completed was admitted before it completed, so a restarted service
// counts it in every stage it passed — submitted, admitted, completed —
// in Counts and in the exposition alike, and the counts of a drain that
// follows keep admitted equal to completed.
func TestRestoredCompletedCountsAdmitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	a, jnlA, _ := openJournalService(t, path, 16)
	a.Start()
	for i := 0; i < 4; i++ {
		if _, err := a.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stopDrained(t, a)
	if err := jnlA.Close(); err != nil {
		t.Fatal(err)
	}

	b, jnlB, rep := openJournalService(t, path, 16)
	if err := b.Restore(journal.Merge(rep), rep.Records, rep.Truncated); err != nil {
		t.Fatal(err)
	}
	if c := b.Counts(); c.Submitted != 4 || c.Admitted != 4 || c.Completed != 4 {
		t.Fatalf("restored counts: %+v, want 4 submitted, admitted and completed", c)
	}
	if m := scrape(t, b); m["dollymp_jobs_admitted_total"].Value != 4 {
		t.Fatalf("restored admitted counter %v, want 4", m["dollymp_jobs_admitted_total"].Value)
	}
	b.Start()
	if _, err := b.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	stopDrained(t, b)
	if c := b.Counts(); c.Submitted != 5 || c.Admitted != 5 || c.Completed != 5 {
		t.Fatalf("counts after the restarted drain: %+v, want 5 each", c)
	}
	if err := jnlB.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJournalStealCrashResurrects covers both crash points of a
// donation, whose two records are lazy and reach their disks in either
// order. `stolen` durable and the thief's `injected` lost: the donor's
// segment alone must bring the job back, because the stolen record's
// spec was retained from `submitted`. `injected` durable and the donor's
// `stolen` lost: both segments hold the job, and the merge must yield
// one pending copy.
func TestServiceJournalStealCrashResurrects(t *testing.T) {
	dir := t.TempDir()
	pathA, pathT := journal.SegmentPath(dir, 0), journal.SegmentPath(dir, 1)
	replay := func(path string) *journal.Replay {
		t.Helper()
		rep, err := journal.ReplayFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, jnlA, _ := openJournalService(t, pathA, 16)
	thief, jnlT, _ := openJournalShard(t, pathT, 16, 2)
	id, err := a.SubmitNowait(testJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	repSubmitted := replay(pathA) // the donor's segment, had its `stolen` been lost
	if got := a.Donate(thief, 1); len(got) != 1 || got[0] != id {
		t.Fatalf("donate: %v", got)
	}
	for _, jnl := range []*journal.Journal{jnlA, jnlT} {
		if err := jnl.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	repA := replay(pathA) // the `stolen` record made it to disk
	for name, reps := range map[string][]*journal.Replay{
		"injected lost": {repA},
		"stolen lost":   {repSubmitted, replay(pathT)},
	} {
		merged := journal.Merge(reps...)
		if len(merged) != 1 || merged[0].ID != id || merged[0].Outcome != journal.OutcomePending || merged[0].Job == nil {
			t.Fatalf("%s: mid-migration merge: %+v", name, merged)
		}
	}
	merged := journal.Merge(repA)

	pathB := journal.SegmentPath(dir, 2)
	b, jnlB, repB := openJournalService(t, pathB, 16)
	if len(repB.Jobs) != 0 {
		t.Fatalf("fresh segment replayed %d jobs", len(repB.Jobs))
	}
	if err := b.Restore(merged, repA.Records, repA.Truncated); err != nil {
		t.Fatal(err)
	}
	b.Start()
	stopDrained(t, b)
	if c := b.Counts(); c.Submitted != 1 || c.Completed != 1 {
		t.Fatalf("resurrected job did not complete: %+v", c)
	}
	if err := jnlB.Close(); err != nil {
		t.Fatal(err)
	}
	rep2 := replay(pathB)
	if len(rep2.Jobs) != 1 || rep2.Jobs[0].ID != id || rep2.Jobs[0].Outcome != journal.OutcomeCompleted {
		t.Fatalf("final replay: %+v", rep2.Jobs)
	}
}

// TestCountersAgreeWithCounts: the admitted, completed and rejected
// counters are reads of Counts at scrape time, and the submitted counter
// moves inside the same critical section as Counts.Submitted, so a
// scrape after a Counts read can never be behind it — the strict
// cross-check the smoke probe relies on.
func TestCountersAgreeWithCounts(t *testing.T) {
	s := newTestService(t, 8) // tiny queue, loop not started: rejects fire too
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			_, err := s.SubmitNowait(testJob(1, 2))
			if err != nil && !errors.Is(err, ErrQueueFull) {
				t.Error(err)
				return
			}
		}
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		c := s.Counts()
		m := scrape(t, s)
		if sub := int64(m["dollymp_jobs_submitted_total"].Value); sub < c.Submitted {
			t.Fatalf("submitted counter %d behind counts %d", sub, c.Submitted)
		}
		if rej := int64(m["dollymp_jobs_rejected_total"].Value); rej < c.Rejected {
			t.Fatalf("rejected counter %d behind counts %d", rej, c.Rejected)
		}
	}
	c, m := s.Counts(), scrape(t, s)
	if int64(m["dollymp_jobs_submitted_total"].Value) != c.Submitted || int64(m["dollymp_jobs_rejected_total"].Value) != c.Rejected {
		t.Fatalf("quiescent counters disagree: %+v vs %v/%v",
			c, m["dollymp_jobs_submitted_total"].Value, m["dollymp_jobs_rejected_total"].Value)
	}
	s.Start()
	stopDrained(t, s)
	c, m = s.Counts(), scrape(t, s)
	if int64(m["dollymp_jobs_admitted_total"].Value) != c.Admitted || int64(m["dollymp_jobs_completed_total"].Value) != c.Completed {
		t.Fatalf("post-drain counters disagree: %+v vs %v/%v",
			c, m["dollymp_jobs_admitted_total"].Value, m["dollymp_jobs_completed_total"].Value)
	}
}

// TestResultNotDrained: Result on a still-running loop is an error, not
// a panic — the caller that timed out a drain can report and retry.
func TestResultNotDrained(t *testing.T) {
	s := newTestService(t, 512)
	if _, err := s.Result(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("Result before Start: %v, want ErrNotDrained", err)
	}
	s.Start()
	for i := 0; i < 200; i++ {
		if _, err := s.SubmitNowait(testJob(4, 50)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Stop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stop with canceled context: %v", err)
	}
	if _, err := s.Result(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("Result mid-drain: %v, want ErrNotDrained", err)
	}
	stopDrained(t, s)
	res, err := s.Result()
	if err != nil || res == nil {
		t.Fatalf("Result after drain: %v, %v", res, err)
	}
	if int64(len(res.Jobs)) != s.Counts().Completed {
		t.Fatalf("result has %d jobs, counts %+v", len(res.Jobs), s.Counts())
	}
}

// durableOps scans a segment and counts, per op the test asks about,
// the jobs whose record of that op is in the file.
func durableOps(t *testing.T, path string) (admitted, completed int) {
	t.Helper()
	rep, err := journal.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rj := range rep.Jobs {
		if rj.Admitted {
			admitted++
		}
		if rj.Outcome == journal.OutcomeCompleted {
			completed++
		}
	}
	return admitted, completed
}

// TestServiceJournalAdmitBurstCommit certifies that a burst of admits
// becomes durable with no later submission's fsync (and long before
// Close) to piggyback on. The loop appends the admitted records and
// never commits; what puts them in the segment is the journal's own
// bounded flush of lazy records.
func TestServiceJournalAdmitBurstCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	s, jnl, _ := openJournalService(t, path, 64)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := s.SubmitNowait(testJob(1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	// Poll the on-disk segment: nothing is submitted after Start, so
	// only the journal's lazy flush can land the admitted records.
	deadline := time.Now().Add(10 * time.Second)
	for {
		admitted, _ := durableOps(t, path)
		if admitted == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d admitted records durable after burst", admitted, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopDrained(t, s)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJournalIdleTailDurable: a daemon that goes quiet must not
// sit on its last records. A few jobs are submitted and complete,
// nothing more arrives, and every admitted and every completed record
// has to reach the segment in bounded time anyway — a job that
// finished long before a SIGKILL must not re-run after it.
func TestServiceJournalIdleTailDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	s, jnl, _ := openJournalService(t, path, 16)
	s.Start()
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Counts().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck: %+v", s.Counts())
		}
		time.Sleep(time.Millisecond)
	}
	// Idle from here on: no submission, no Stop, no Close. The bound is
	// the journal's flush delay (milliseconds) plus one fsync; half a
	// second is that with room for a loaded machine.
	idleSince := time.Now()
	for {
		admitted, completed := durableOps(t, path)
		if admitted == n && completed == n {
			break
		}
		if idle := time.Since(idleSince); idle > 500*time.Millisecond {
			t.Fatalf("after %v idle: %d of %d admitted and %d of %d completed records durable",
				idle, admitted, n, completed, n)
		}
		time.Sleep(time.Millisecond)
	}
	stopDrained(t, s)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStageAndFsyncMetrics: every job observes each stage it passed
// through on this service exactly once, a replayed job skips the
// journal wait it never had here, completed history observes nothing,
// and the journal's fsync accounting reads the same from the status
// view and from /metrics — one fsync per sequentially acknowledged job.
func TestStageAndFsyncMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	stages := func(step string, samples map[string]metrics.PromSample, journalWait, queueWait, run float64) {
		t.Helper()
		for stage, want := range map[string]float64{
			"journal_wait": journalWait, "queue_wait": queueWait,
			"admit_to_start": run, "start_to_complete": run,
		} {
			key := `dollymp_stage_seconds_count{stage="` + stage + `"}`
			if got, ok := samples[key]; !ok || got.Value != want {
				t.Errorf("%s: %s = %v (present %v), want %v", step, key, got.Value, ok, want)
			}
		}
	}

	const n = 5
	a, jnlA, _ := openJournalService(t, path, 16)
	for i := 0; i < n; i++ {
		if _, err := a.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	samples := scrape(t, a)
	stages("queued", samples, n, 0, 0)
	js := a.Snapshot().Journal
	if js.Fsyncs != n || js.FsyncSeconds <= 0 {
		t.Fatalf("journal status after %d sequential acks: %+v", n, js)
	}
	if got := samples["dollymp_journal_fsyncs_total"].Value; got != n {
		t.Errorf("dollymp_journal_fsyncs_total = %v, want %d", got, n)
	}
	if got := samples["dollymp_journal_fsync_seconds_total"].Value; got != js.FsyncSeconds {
		t.Errorf("dollymp_journal_fsync_seconds_total = %v, status says %v", got, js.FsyncSeconds)
	}
	sum := JournalStatus{Fsyncs: 2, FsyncSeconds: 0.5}
	sum.Add(*js)
	if sum.Fsyncs != n+2 || sum.FsyncSeconds != js.FsyncSeconds+0.5 {
		t.Errorf("JournalStatus.Add dropped the fsync accounting: %+v", sum)
	}
	a.Start()
	stopDrained(t, a)
	stages("drained", scrape(t, a), n, n, n)
	if err := jnlA.Close(); err != nil {
		t.Fatal(err)
	}

	b, jnlB, rep := openJournalService(t, path, 16)
	rep.Jobs[0].Outcome = journal.OutcomePending // as if its completed record had been lost
	if err := b.Restore(journal.Merge(rep), rep.Records, rep.Truncated); err != nil {
		t.Fatal(err)
	}
	b.Start()
	stopDrained(t, b)
	stages("replayed", scrape(t, b), 0, 1, 1)
	if err := jnlB.Close(); err != nil {
		t.Fatal(err)
	}

	// An unjournaled service has the stage series but no journal ones.
	plain := scrape(t, newTestService(t, 8))
	stages("unjournaled", plain, 0, 0, 0)
	if _, ok := plain["dollymp_journal_fsyncs_total"]; ok {
		t.Error("unjournaled service exposes dollymp_journal_fsyncs_total")
	}
}
