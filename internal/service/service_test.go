package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// fifo is a deliberately simple first-fit scheduler so service tests
// exercise the service, not a policy.
type fifo struct{}

func (fifo) Name() string { return "fifo" }

func (fifo) Schedule(ctx sched.Context) []sched.Placement {
	var out []sched.Placement
	ft := sched.NewFitTracker(ctx.Cluster())
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			for _, s := range ctx.Cluster().Servers() {
				if ft.Place(s.ID, pt.Demand) {
					out = append(out, sched.Placement{Ref: pt.Ref, Server: s.ID})
					break
				}
			}
		}
	}
	return out
}

func testJob(tasks int, mean float64) *workload.Job {
	return &workload.Job{
		Name: "t", App: "test",
		Phases: []workload.Phase{{
			Name: "p", Tasks: tasks, Demand: resources.Cores(1, 1),
			MeanDuration: mean, SDDuration: 0,
		}},
	}
}

func newTestService(t *testing.T, queueCap int) *Service {
	t.Helper()
	s, err := New(Config{
		Cluster:       cluster.Uniform(8, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stopDrained(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// scrape reads the service's exposition the way /metrics serves it,
// strictly parsed, keyed by series name and labels.
func scrape(t *testing.T, s *Service) map[string]metrics.PromSample {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParsePromText(&buf)
	if err != nil {
		t.Fatalf("metrics output invalid: %v", err)
	}
	return samples
}

// TestServiceConcurrentSubmitters is the e2e acceptance test: 8
// goroutines push ≥500 jobs into a live service; every job must reach
// completed with a stamped JCT, no job may be lost or duplicated, the
// virtual clock must be monotonic, and shutdown must drain cleanly.
func TestServiceConcurrentSubmitters(t *testing.T) {
	const submitters = 8
	const perSubmitter = 64    // 512 total
	s := newTestService(t, 64) // smaller than the total: backpressure is exercised
	s.Start()

	// A watcher asserts clock monotonicity while the run is live, and
	// scrapes /metrics, whose reads race the loop's writes under -race.
	watchDone := make(chan struct{})
	var clockViolation atomic.Bool
	go func() {
		defer close(watchDone)
		var last int64
		for i := 0; i < 2000; i++ {
			if err := s.WriteMetrics(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
			}
			c := s.Snapshot().Clock
			if c < last {
				clockViolation.Store(true)
				return
			}
			last = c
			time.Sleep(time.Millisecond)
		}
	}()

	var mu sync.Mutex
	seen := make(map[workload.JobID]bool)
	var wg sync.WaitGroup
	var retries atomic.Int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j := testJob(1+(g+i)%4, float64(1+(g*i)%7))
				for {
					id, err := s.SubmitNowait(j)
					if errors.Is(err, ErrQueueFull) {
						retries.Add(1)
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					if seen[id] {
						t.Errorf("duplicate job ID %d", id)
					}
					seen[id] = true
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()
	stopDrained(t, s)
	<-watchDone

	if clockViolation.Load() {
		t.Fatal("virtual clock moved backwards during the run")
	}
	const total = submitters * perSubmitter
	c := s.Counts()
	if c.Submitted != total || c.Admitted != total || c.Completed != total {
		t.Fatalf("lost jobs: %+v, want %d submitted/admitted/completed", c, total)
	}
	if len(seen) != total {
		t.Fatalf("submitters hold %d IDs, want %d", len(seen), total)
	}
	for id := range seen {
		info, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %d lost", id)
		}
		if info.State != StateCompleted {
			t.Fatalf("job %d in state %s after drain", id, info.State)
		}
		if info.Flowtime < 0 || info.Finish < info.FirstStart || info.FirstStart < info.Arrival {
			t.Fatalf("job %d has incoherent stamps: %+v", id, info)
		}
	}
	// Metric counters must agree with the accounting.
	if got := scrape(t, s)["dollymp_jobs_completed_total"].Value; got != float64(total) {
		t.Fatalf("completed counter %v, want %d", got, total)
	}
	if got := s.mJCT.Count(); got != uint64(total) {
		t.Fatalf("JCT histogram has %d observations, want %d", got, total)
	}
	t.Logf("drained %d jobs, %d backpressure retries, final clock %d slots",
		total, retries.Load(), s.Snapshot().Clock)
}

func TestServiceBackpressure(t *testing.T) {
	// Not started: nothing drains the queue, so cap+0 fits and the next
	// submit bounces with ErrQueueFull.
	s := newTestService(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitNowait(testJob(1, 1)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.SubmitNowait(testJob(1, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	c := s.Counts()
	if c.Submitted != 2 || c.Rejected != 1 {
		t.Fatalf("counts: %+v", c)
	}
	// The queued jobs still drain on Stop.
	s.Start()
	stopDrained(t, s)
	if c := s.Counts(); c.Completed != 2 {
		t.Fatalf("queued jobs not drained: %+v", c)
	}
}

func TestServiceRejectsAfterStop(t *testing.T) {
	s := newTestService(t, 8)
	s.Start()
	if _, err := s.SubmitNowait(testJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	stopDrained(t, s)
	if _, err := s.SubmitNowait(testJob(1, 1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("result completed: %d", res.Completed)
	}
}

func TestServiceValidatesJobs(t *testing.T) {
	s := newTestService(t, 8)
	if _, err := s.SubmitNowait(nil); err == nil {
		t.Fatal("nil job accepted")
	}
	if _, err := s.SubmitNowait(&workload.Job{Name: "no-phases"}); err == nil {
		t.Fatal("invalid job accepted")
	}
	if c := s.Counts(); c.Submitted != 0 {
		t.Fatalf("invalid submissions counted: %+v", c)
	}
}

// TestServiceLifecycleStamps follows one job through the state machine.
func TestServiceLifecycleStamps(t *testing.T) {
	s := newTestService(t, 8)
	id, err := s.SubmitNowait(testJob(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.Job(id)
	if !ok || info.State != StateQueued || info.Arrival != -1 {
		t.Fatalf("pre-start state: %+v", info)
	}
	s.Start()
	stopDrained(t, s)
	info, _ = s.Job(id)
	if info.State != StateCompleted {
		t.Fatalf("state %s", info.State)
	}
	if info.Arrival < 0 || info.FirstStart < info.Arrival || info.Finish < info.FirstStart {
		t.Fatalf("stamps out of order: %+v", info)
	}
	if info.Flowtime != info.Finish-info.Arrival {
		t.Fatalf("flowtime %d != finish-arrival %d", info.Flowtime, info.Finish-info.Arrival)
	}
	if info.Tasks != 2 {
		t.Fatalf("tasks: %d", info.Tasks)
	}
}

// TestServiceWaves verifies the loop goes idle between bursts and
// resumes, with utilization returning to zero after the drain.
func TestServiceWaves(t *testing.T) {
	s := newTestService(t, 32)
	s.Start()
	submitWave := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.SubmitNowait(testJob(1, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCompleted := func(n int64) {
		deadline := time.Now().Add(30 * time.Second)
		for s.Counts().Completed < n {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %d completions: %+v", n, s.Counts())
			}
			time.Sleep(time.Millisecond)
		}
	}
	submitWave(10)
	waitCompleted(10)
	clockAfter1 := s.Snapshot().Clock
	submitWave(10)
	waitCompleted(20)
	snap := s.Snapshot()
	if snap.Clock < clockAfter1 {
		t.Fatalf("clock went backwards across waves: %d -> %d", clockAfter1, snap.Clock)
	}
	if snap.UtilizationCPU != 0 || snap.ActiveJobs != 0 {
		t.Fatalf("idle snapshot shows load: %+v", snap)
	}
	stopDrained(t, s)
}

func TestServiceStopTimeout(t *testing.T) {
	s := newTestService(t, 8)
	s.Start()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Even with work pending, an expired context returns promptly.
	for i := 0; i < 4; i++ {
		_, _ = s.SubmitNowait(testJob(1, 100))
	}
	if err := s.Stop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A real deadline still drains.
	stopDrained(t, s)
}

func TestServiceConfigValidation(t *testing.T) {
	if _, err := New(Config{Scheduler: fifo{}}); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := New(Config{Cluster: cluster.Uniform(1, resources.Cores(1, 1))}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(1, 1)), Scheduler: fifo{}, QueueCap: -1,
	}); err == nil {
		t.Fatal("negative queue cap accepted")
	}
}

func BenchmarkServiceSubmitDrain(b *testing.B) {
	s, err := New(Config{
		Cluster:       cluster.Uniform(8, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			_, err := s.SubmitNowait(testJob(1, 2))
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if c := s.Counts(); c.Completed != int64(b.N) {
		b.Fatalf("completed %d of %d", c.Completed, b.N)
	}
}
