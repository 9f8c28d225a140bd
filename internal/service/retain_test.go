//go:build !race

package service_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/journal"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// wave is how many jobs a paced drive submits before it waits for them
// all to complete. Submitting everything at once would measure the
// backlog's high-water mark — the scheduler's scratch and the record
// map grow to the peak active set — not the finished history.
const wave = 50

// pacedDrive submits n GoogleLike jobs to api in waves of wave, each
// only once counts reports every earlier job completed.
func pacedDrive(t *testing.T, api interface {
	SubmitNowait(*workload.Job) (workload.JobID, error)
}, counts func() service.Counts, n int) {
	t.Helper()
	jobs := trace.DefaultGoogleLike(n, 1.0, 42).Generate()
	deadline := time.Now().Add(2 * time.Minute)
	for at := 0; at < n; at += wave {
		for _, j := range jobs[at:min(at+wave, n)] {
			if _, err := api.SubmitNowait(j); err != nil {
				t.Fatal(err)
			}
		}
		for counts().Completed < int64(min(at+wave, n)) {
			if time.Now().After(deadline) {
				t.Fatalf("wave at %d never completed: %+v", at, counts())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServiceRetainsBoundedHistory is TestDrainRetainsNothingPerJob one
// layer up: the live heap a deployment holds after n finished jobs, at
// two sizes, must not grow by more than maxPerJob per extra job. A
// service keeps the records of its newest FinishedKept completed jobs
// and its engine folds the rest into a digest; without both it kept
// about 289 B per job. Three rows: a service driven in paced waves, a
// journaled service restored from a journal of n completed jobs, and a
// two-shard stealing router driven in paced waves.
func TestServiceRetainsBoundedHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("drains 50 000 jobs and restores 25 000")
	}
	const small, large = 5_000, 20_000
	const maxPerJob = 32
	rows := []struct {
		name string
		// retained runs n jobs through a fresh deployment and returns the
		// live heap while it still holds them.
		retained func(t *testing.T, n int) uint64
	}{
		{"service", func(t *testing.T, n int) uint64 {
			s := newRetainService(t, nil)
			s.Start()
			pacedDrive(t, s, s.Counts, n)
			heap := liveHeap()
			if err := s.Stop(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkRetained(t, s.Counts(), s.Jobs(service.JobFilter{State: service.StateCompleted}), n, service.FinishedKept)
			return heap
		}},
		{"journaled restore", func(t *testing.T, n int) uint64 {
			s, jnl := restoreJournal(t, completedJournal(t, n))
			defer jnl.Close()
			heap := liveHeap()
			checkRetained(t, s.Counts(), s.Jobs(service.JobFilter{State: service.StateCompleted}), n, service.FinishedKept)
			return heap
		}},
		{"stealing router", func(t *testing.T, n int) uint64 {
			r, err := shard.New(shard.Config{
				Fleet: cluster.LargeFleet(100, 1), Shards: 2, Seed: 1,
				Policy: shard.RouteSingle, Steal: true,
				NewScheduler: func(int) (sched.Scheduler, error) { return core.New(core.WithClones(2)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			pacedDrive(t, r, r.Counts, n)
			heap := liveHeap()
			if err := r.Stop(context.Background()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d jobs stolen of %d", r.Stolen(), n)
			checkRetained(t, r.Counts(), r.Jobs(service.JobFilter{State: service.StateCompleted}), n, 2*service.FinishedKept)
			return heap
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a, b := row.retained(t, small), row.retained(t, large)
			perJob := (float64(b) - float64(a)) / (large - small)
			t.Logf("live heap after %d finished jobs: %d B, after %d: %d B; %.1f B per extra job", small, a, large, b, perJob)
			if perJob > maxPerJob {
				t.Fatalf("%.1f bytes retained per extra finished job, want at most %d", perJob, maxPerJob)
			}
		})
	}
}

// newRetainService is the service every row schedules on: DollyMP with
// up to two clones per task on a 100-server heterogeneous fleet.
func newRetainService(t *testing.T, jnl *journal.Journal) *service.Service {
	t.Helper()
	s, err := service.New(service.Config{
		Cluster:   cluster.LargeFleet(100, 1),
		Scheduler: core.MustNew(core.WithClones(2)),
		Seed:      1,
		Journal:   jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// restoreJournal opens the segment at path and restores a fresh
// journaled service from it; the replay is garbage once it returns.
func restoreJournal(t *testing.T, path string) (*service.Service, *journal.Journal) {
	t.Helper()
	jnl, rep, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := newRetainService(t, jnl)
	if err := s.Restore(journal.Merge(rep), rep.Records, rep.Truncated); err != nil {
		t.Fatal(err)
	}
	return s, jnl
}

// checkRetained requires every one of n jobs counted completed and at
// most kept completed records listed.
func checkRetained(t *testing.T, c service.Counts, done []service.JobInfo, n, kept int) {
	t.Helper()
	if c.Completed != int64(n) || len(done) > kept {
		t.Fatalf("counts %+v and %d completed records for %d jobs, want all counted and at most %d held", c, len(done), n, kept)
	}
}

// completedJournal writes a segment holding n GoogleLike jobs, each
// submitted and completed.
func completedJournal(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.wal")
	jnl, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for i, j := range trace.DefaultGoogleLike(n, 1.0, 42).Generate() {
		id := workload.JobID(i + 1)
		j.ID = id
		if _, err = jnl.Append(journal.Record{Op: journal.OpSubmitted, ID: id, Job: j}); err == nil {
			seq, err = jnl.Append(journal.Record{Op: journal.OpCompleted, ID: id, Finish: int64(i + 10), Flowtime: 10})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
