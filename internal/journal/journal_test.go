package journal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

func testJob(id workload.JobID) *workload.Job {
	return &workload.Job{
		ID: id, Name: "j", App: "test",
		Phases: []workload.Phase{{
			Name: "p", Tasks: 2, Demand: resources.Cores(1, 1),
			MeanDuration: 3,
		}},
	}
}

func openT(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func appendT(t *testing.T, j *Journal, rec Record) uint64 {
	t.Helper()
	seq, err := j.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestJournalRoundTrip: records written and committed come back on
// replay with the right per-job outcomes.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, rep := openT(t, path)
	if rep.Records != 0 || len(rep.Jobs) != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	appendT(t, j, Record{Op: OpAdmitted, ID: 1, Arrival: 4})
	appendT(t, j, Record{Op: OpCompleted, ID: 1, Finish: 9, Flowtime: 5})
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	seq := appendT(t, j, Record{Op: OpAdmitted, ID: 2, Arrival: 9})
	if err := j.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep := openT(t, path)
	defer j2.Close()
	if rep.Records != 5 || rep.Truncated != 0 {
		t.Fatalf("replay: %d records, %d truncated", rep.Records, rep.Truncated)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rep.Jobs))
	}
	j1, jb2 := rep.Jobs[0], rep.Jobs[1]
	if j1.ID != 1 || j1.Outcome != OutcomeCompleted || j1.Finish != 9 || j1.Flowtime != 5 {
		t.Fatalf("job 1: %+v", j1)
	}
	if jb2.ID != 2 || jb2.Outcome != OutcomePending || !jb2.Admitted || jb2.Job == nil {
		t.Fatalf("job 2: %+v", jb2)
	}
	if jb2.Job.TotalTasks() != 2 {
		t.Fatalf("job 2 spec lost: %+v", jb2.Job)
	}
}

// TestJournalTornTail: a crash mid-write (the file sliced at every
// possible byte offset, from inside the header on) must replay every
// intact record, drop the torn bytes with a warning count, and leave the
// file appendable. A header torn short of its 12 bytes is the torn tail
// of an empty segment: ReplayFile reports it and leaves it on disk, Open
// truncates it away.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	j, _ := openT(t, full)
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	cut := size(t, full) // end of record 1
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	hdr := int64(headerLen)
	for at := int64(1); at < int64(len(whole)); at++ {
		// The intact prefix: nothing inside the header, the bare header
		// inside record 1, record 1 from its end on.
		good, records := int64(0), int64(0)
		switch {
		case at >= cut:
			good, records = cut, 1
		case at >= hdr:
			good = hdr
		}
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, whole[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		if at < hdr {
			rep, err := ReplayFile(path)
			if err != nil || rep.Records != 0 || rep.Truncated != at {
				t.Fatalf("cut at %d: ReplayFile = %+v, %v (want 0 records, %d truncated)", at, rep, err, at)
			}
			if got := size(t, path); got != at {
				t.Fatalf("cut at %d: ReplayFile rewrote the file: size %d", at, got)
			}
		}
		j2, rep := openT(t, path)
		if rep.Records != records || rep.Truncated != at-good {
			t.Fatalf("cut at %d: %d records, %d truncated (want %d, %d)", at, rep.Records, rep.Truncated, records, at-good)
		}
		if records == 1 && (len(rep.Jobs) != 1 || rep.Jobs[0].ID != 1 || rep.Jobs[0].Outcome != OutcomePending) {
			t.Fatalf("cut at %d: jobs %+v", at, rep.Jobs)
		}
		if got := size(t, path); got != good {
			t.Fatalf("cut at %d: torn tail not truncated: size %d, want %d", at, got, good)
		}
		// The truncated journal must accept and replay new appends.
		seq := appendT(t, j2, Record{Op: OpCompleted, ID: 1, Finish: 3, Flowtime: 3})
		if err := j2.Commit(seq); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, rep2 := openT(t, path)
		if rep2.Records != records+1 || rep2.Jobs[0].Outcome != OutcomeCompleted {
			t.Fatalf("cut at %d: after repair+append: %+v", at, rep2)
		}
		// Release the lease: the next iteration rewrites this inode, and
		// a leaked descriptor would refuse the reopen as a live writer.
		j3.Close()
	}
}

// TestJournalCorruptPayload: a flipped byte mid-file fails the CRC and
// everything from that record on is treated as the tail.
func TestJournalCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	first := int64(0)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	first = size(t, path)
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	appendT(t, j, Record{Op: OpSubmitted, ID: 3, Job: testJob(3)})
	j.Close()

	raw, _ := os.ReadFile(path)
	raw[first+12] ^= 0xff // inside record 2's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := openT(t, path)
	defer j2.Close()
	if rep.Records != 1 || len(rep.Jobs) != 1 || rep.Jobs[0].ID != 1 {
		t.Fatalf("corrupt mid-file: %+v", rep)
	}
	if rep.Truncated == 0 {
		t.Fatal("corruption not reported as truncation")
	}
}

// TestJournalBadHeader: wrong magic or a future version is a hard
// error — that is not a torn file, it is the wrong file.
func TestJournalBadHeader(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(bad, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Shorter than a header but not the start of one: still the wrong
	// file, not a torn one.
	short := filepath.Join(dir, "short.wal")
	if err := os.WriteFile(short, []byte("dollyX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(short); err == nil {
		t.Fatal("short file with bad magic accepted")
	}

	vers := filepath.Join(dir, "vers.wal")
	hdr := make([]byte, 12)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion+1)
	if err := os.WriteFile(vers, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(vers); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestMergeMigrationCrashPoints: every crash point around a cross-shard
// migration replays the job exactly once, never zero, never twice.
func TestMergeMigrationCrashPoints(t *testing.T) {
	sub := func(id workload.JobID) *Replay {
		r := &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomePending, Job: testJob(id)}}}
		return r
	}
	stolen := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomeStolen, Job: testJob(id)}}}
	}
	inj := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomePending, Job: testJob(id)}}}
	}
	done := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomeCompleted, Finish: 7, Flowtime: 7}}}
	}

	cases := []struct {
		name string
		reps []*Replay
		want JobOutcome
	}{
		{"stolen durable, injected lost", []*Replay{stolen(5), {}}, OutcomePending},
		{"stolen lost, injected durable", []*Replay{sub(5), inj(5)}, OutcomePending},
		{"both durable", []*Replay{stolen(5), inj(5)}, OutcomePending},
		{"completed on thief", []*Replay{stolen(5), done(5)}, OutcomeCompleted},
		{"completed beats pending", []*Replay{sub(5), done(5)}, OutcomeCompleted},
	}
	for _, tc := range cases {
		got := Merge(tc.reps...)
		if len(got) != 1 {
			t.Fatalf("%s: %d jobs, want exactly 1", tc.name, len(got))
		}
		if got[0].Outcome != tc.want {
			t.Fatalf("%s: outcome %v, want %v", tc.name, got[0].Outcome, tc.want)
		}
		if tc.want == OutcomePending && got[0].Job == nil {
			t.Fatalf("%s: pending job lost its spec", tc.name)
		}
	}
}

// TestJournalConcurrentCommit: many goroutines appending and committing
// share fsyncs; everything must be durable and replayable afterwards.
func TestJournalConcurrentCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	const n = 64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := workload.JobID(g + 1)
			seq, err := j.Append(Record{Op: OpSubmitted, ID: id, Job: testJob(id)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.Commit(seq); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, path)
	if rep.Records != n || len(rep.Jobs) != n {
		t.Fatalf("replayed %d records / %d jobs, want %d", rep.Records, len(rep.Jobs), n)
	}
}

// waitDisarmed waits until the lazy-flush timer has fired and found
// nothing left to do.
func waitDisarmed(t *testing.T, j *Journal) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		armed := j.armed
		j.mu.Unlock()
		if !armed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lazy-flush timer still armed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLazyFlushBound: records appended with no Commit, and nothing
// appended after them, are on disk within the flush delay plus one
// fsync — one fsync for all of them.
func TestLazyFlushBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	defer j.Close()
	start := time.Now()
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	appendT(t, j, Record{Op: OpAdmitted, ID: 1, Arrival: 1})
	appendT(t, j, Record{Op: OpCompleted, ID: 1, Finish: 4, Flowtime: 3})
	// The bound is flushDelay + one fsync; the slack is for a loaded
	// machine's scheduler and disk, not for the mechanism.
	const slack = 100 * flushDelay
	for {
		rep, err := ReplayFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records == 3 && rep.Truncated == 0 {
			break
		}
		if rep.Records != 0 {
			t.Fatalf("lazy flush wrote %d of 3 records (%d torn bytes)", rep.Records, rep.Truncated)
		}
		if waited := time.Since(start); waited > flushDelay+slack {
			t.Fatalf("nothing on disk %v after the appends (flush delay %v)", waited, flushDelay)
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < flushDelay {
		t.Fatalf("records on disk after %v, before the flush delay %v: something else synced them", took, flushDelay)
	}
	// Visible in the file is written, not yet synced: the flush is over
	// when the timer has stood down.
	waitDisarmed(t, j)
	if st := j.Stats(); st.Fsyncs != 1 || st.FsyncTime <= 0 {
		t.Fatalf("stats after one lazy flush: %+v", st)
	}
}

// TestLazyFlushIssuesNoSyncWhenCovered: when a Commit has already taken
// the record the timer was armed for, the firing costs no fsync; a
// record appended behind that Commit is still flushed on its own clock.
func TestLazyFlushIssuesNoSyncWhenCovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	defer j.Close()
	seq := appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	if err := j.Commit(seq); err != nil {
		t.Fatal(err)
	}
	waitDisarmed(t, j)
	if st := j.Stats(); st.Fsyncs != 1 {
		t.Fatalf("timer fired on a covered record and issued an fsync: %+v", st)
	}

	// Arm on a record a Commit covers, then leave a lazy one behind it:
	// the firing must re-arm for the lazy record, not forget it.
	seq = appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	if err := j.Commit(seq); err != nil {
		t.Fatal(err)
	}
	appendT(t, j, Record{Op: OpAdmitted, ID: 2, Arrival: 1})
	waitDisarmed(t, j)
	if st := j.Stats(); st.Fsyncs != 3 {
		t.Fatalf("fsyncs = %d, want 3 (two commits, one lazy flush)", st.Fsyncs)
	}
	rep, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || !rep.Jobs[1].Admitted {
		t.Fatalf("lazy record behind a commit not on disk: %d records, jobs %+v", rep.Records, rep.Jobs)
	}
}

// TestLazyFlushAfterCloseAndCrash: the timer outlives neither. Close
// syncs the tail itself and nothing is written afterwards; Crash loses
// exactly the records no Commit covered, and they stay lost.
func TestLazyFlushAfterCloseAndCrash(t *testing.T) {
	dir := t.TempDir()

	closed := filepath.Join(dir, "closed.wal")
	j, _ := openT(t, closed)
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, fsyncs := size(t, closed), j.Stats().Fsyncs
	time.Sleep(3 * flushDelay)
	if got := size(t, closed); got != before || j.Stats().Fsyncs != fsyncs {
		t.Fatalf("written after Close: size %d -> %d, fsyncs %d -> %d", before, got, fsyncs, j.Stats().Fsyncs)
	}

	// The crash has to land inside the flush delay of the uncommitted
	// append; on a machine that stalls the test longer than that the
	// lazy flush legitimately wins, which the fsync count shows.
	for attempt := 0; ; attempt++ {
		crashed := filepath.Join(dir, "crashed.wal")
		j, _ = openT(t, crashed)
		seq := appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
		if err := j.Commit(seq); err != nil {
			t.Fatal(err)
		}
		appendT(t, j, Record{Op: OpCompleted, ID: 1, Finish: 3, Flowtime: 3})
		if err := j.Crash(); err != nil {
			t.Fatal(err)
		}
		if j.Stats().Fsyncs != 1 {
			if attempt == 10 {
				t.Fatal("could not crash inside the flush delay in 10 attempts")
			}
			if err := os.Remove(crashed); err != nil {
				t.Fatal(err)
			}
			continue
		}
		time.Sleep(3 * flushDelay)
		rep, err := ReplayFile(crashed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != 1 || rep.Truncated != 0 || rep.Jobs[0].Outcome != OutcomePending {
			t.Fatalf("after crash: %d records, %d torn bytes, jobs %+v", rep.Records, rep.Truncated, rep.Jobs)
		}
		if _, err := j.Append(Record{Op: OpAdmitted, ID: 1}); err == nil {
			t.Fatal("append after Crash succeeded")
		}
		return
	}
}

// TestListSegments: only *.wal files, sorted; a missing dir is empty.
func TestListSegments(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"shard-001.wal", "shard-000.wal", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || filepath.Base(got[0]) != "shard-000.wal" || filepath.Base(got[1]) != "shard-001.wal" {
		t.Fatalf("segments: %v", got)
	}
	if got, err := ListSegments(filepath.Join(dir, "nope")); err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %v, %v", got, err)
	}
}

func size(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
