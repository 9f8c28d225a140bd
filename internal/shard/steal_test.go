package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/service"
	"dollymp/internal/workload"
)

func newStealRouter(t *testing.T, shards, queueCap int, policy RoutePolicy) *Router {
	t.Helper()
	r, err := New(Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		Shards:        shards,
		NewScheduler:  newFifo,
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		Policy:        policy,
		Steal:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRebalanceDistributesSkewedQueue drives the rebalancer without its
// ticker: 200 jobs pinned to shard 0 (loops stopped, so everything
// stays queued) must spread to an even 50/50/50/50 in one scan, every
// job staying findable through the router's ownership map at every
// step.
func TestRebalanceDistributesSkewedQueue(t *testing.T) {
	const n = 200
	r := newStealRouter(t, 4, 256, RouteSingle)
	ids := make([]workload.JobID, 0, n)
	for i := 0; i < n; i++ {
		id, err := r.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if d := r.Shards()[0].QueueDepth; d != n {
		t.Fatalf("shard 0 queue %d before rebalance, want %d", d, n)
	}

	moved := r.rebalanceOnce()
	if moved != 200 {
		t.Fatalf("rebalance moved %d jobs, want 200 (100 + 50 + 50)", moved)
	}
	for k, st := range r.Shards() {
		if st.QueueDepth != 50 {
			t.Fatalf("shard %d queue %d after rebalance, want 50", k, st.QueueDepth)
		}
	}
	if again := r.rebalanceOnce(); again != 0 {
		t.Fatalf("balanced deployment still moved %d jobs", again)
	}
	// Ownership map: every job resolves through the router while
	// queued, even though most now live outside their residue class.
	for _, id := range ids {
		info, ok := r.Job(id)
		if !ok || info.State != service.StateQueued {
			t.Fatalf("job %d mid-migration: ok=%v info=%+v", id, ok, info)
		}
	}
	if jobs := r.Jobs(service.JobFilter{}); len(jobs) != n {
		t.Fatalf("Jobs() lists %d, want %d", len(jobs), n)
	}
	if c := r.Counts(); c.Submitted != n {
		t.Fatalf("migration changed aggregate Submitted: %+v", c)
	}

	r.Start()
	stopDrained(t, r)
	agg := r.Counts()
	if agg.Completed != n || agg.Submitted != n {
		t.Fatalf("lost jobs across migration: %+v", agg)
	}
	for _, id := range ids {
		info, ok := r.Job(id)
		if !ok || info.State != service.StateCompleted || info.Flowtime < 0 {
			t.Fatalf("job %d after drain: ok=%v info=%+v", id, ok, info)
		}
	}
	if s := r.Stolen(); s < 200 {
		t.Fatalf("Stolen() = %d, want >= 200", s)
	}
}

// TestRouterSubmitFallsThroughDrainedShard is the regression test for
// the blocking-submit bug: a waiter parked on a full shard must survive
// that shard draining mid-wait and land its job on a live sibling. On
// the pre-fix router the waiter either returned ErrStopped (picked
// shard drained) or hung (another shard freed first).
func TestRouterSubmitFallsThroughDrainedShard(t *testing.T) {
	r := newTestRouter(t, 2, 1, RouteP2C)
	// Fill both single-slot queues; loops stay stopped.
	for i := 0; i < 2; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		id  workload.JobID
		err error
	}
	done := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		id, err := r.Submit(ctx, testJob(1, 2))
		done <- result{id, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on a full deployment

	// Drain shard 0 under the waiter: it runs its one queued job and
	// stops. The waiter must not fail with ErrStopped — shard 1 is
	// still alive, merely full.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Shard(0).Stop(ctx); err != nil {
		t.Fatalf("drain shard 0: %v", err)
	}
	select {
	case res := <-done:
		t.Fatalf("waiter resolved while shard 1 still full: (%d, %v)", res.id, res.err)
	case <-time.After(100 * time.Millisecond):
	}

	// Shard 1 starts draining its queue: the waiter's job must land
	// there — the only live shard.
	r.Shard(1).Start()
	res := <-done
	if res.err != nil {
		t.Fatalf("waiter failed after shard 0 drained: %v", res.err)
	}
	if (int(res.id)-1)%2 != 1 {
		t.Fatalf("waiter's job %d not on shard 1", res.id)
	}
	if err := r.Shard(1).Stop(ctx); err != nil {
		t.Fatalf("drain shard 1: %v", err)
	}
	info, ok := r.Job(res.id)
	if !ok || info.State != service.StateCompleted {
		t.Fatalf("fallen-through job %d: ok=%v info=%+v", res.id, ok, info)
	}
}

// TestRouterSubmitAllDrainingStops: once every shard drains, a blocked
// Submit resolves to ErrStopped instead of spinning forever.
func TestRouterSubmitAllDrainingStops(t *testing.T) {
	r := newTestRouter(t, 2, 1, RouteP2C)
	for i := 0; i < 2; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), testJob(1, 2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	stopDrained(t, r)
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("waiter on fully-drained deployment got %v, want ErrStopped", err)
	}
}

// TestRouterStealStress combines everything under -race: concurrent
// blocking submitters pinned to shard 0, the rebalancer ticking beside
// them, and a drain racing the tail of the submissions. Every accepted
// job must complete and stay findable through the ownership map; the
// aggregate accounting must balance to the job.
func TestRouterStealStress(t *testing.T) {
	const submitters = 8
	const perSubmitter = 50 // 400 total
	r := newStealRouter(t, 4, 8, RouteSingle)
	r.Start()

	var mu sync.Mutex
	accepted := make(map[workload.JobID]bool)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				id, err := r.Submit(ctx, testJob(1+(g+i)%3, float64(1+(g*i)%5)))
				cancel()
				if errors.Is(err, ErrStopped) {
					return // drain won the race; fine
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				if accepted[id] {
					t.Errorf("duplicate ID %d", id)
				}
				accepted[id] = true
				mu.Unlock()
			}
		}(g)
	}
	// Let the submitters and the rebalancer churn, then drain under
	// them: accepted jobs must all complete, racing submits must all
	// resolve.
	time.Sleep(150 * time.Millisecond)
	stopDrained(t, r)
	wg.Wait()

	agg := r.Counts()
	if int(agg.Submitted) != len(accepted) {
		t.Fatalf("aggregate Submitted %d != %d accepted by submitters", agg.Submitted, len(accepted))
	}
	if agg.Completed != agg.Submitted || agg.Admitted != agg.Submitted {
		t.Fatalf("accepted jobs stranded: %+v", agg)
	}
	var sum service.Counts
	for _, st := range r.Shards() {
		sum.Add(st.Jobs)
	}
	if sum != agg {
		t.Fatalf("per-shard sum %+v != aggregate %+v", sum, agg)
	}
	// Ownership property: every accepted job is findable through the
	// router and lives on exactly one shard.
	for id := range accepted {
		info, ok := r.Job(id)
		if !ok {
			t.Fatalf("job %d lost after migration churn", id)
		}
		if info.State != service.StateCompleted || info.Flowtime < 0 ||
			info.Finish < info.FirstStart || info.FirstStart < info.Arrival {
			t.Fatalf("job %d incoherent after drain: %+v", id, info)
		}
		homes := 0
		for k := 0; k < r.NumShards(); k++ {
			if _, ok := r.Shard(k).Job(id); ok {
				homes++
			}
		}
		if homes != 1 {
			t.Fatalf("job %d lives on %d shards", id, homes)
		}
	}
}
