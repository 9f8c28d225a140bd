package shard

import (
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

// TestRouterStealStress combines everything under -race: concurrent
// submitters pinned to shard 0, the rebalancer ticking beside them, and
// a drain racing the second half of the submissions. Every accepted job
// must complete and stay findable through the ownership map; the
// aggregate accounting must balance to the job.
func TestRouterStealStress(t *testing.T) {
	const submitters = 8
	const perSubmitter = 50 // 400 total
	// Shard 0 alone has room for everything sent, so no submit is refused
	// for space and the backlog is the rebalancer's to spread.
	r := newStealRouter(t, 4, submitters*perSubmitter, RouteSingle)
	r.Start()

	var mu sync.Mutex
	accepted := make(map[workload.JobID]bool)
	half := make(chan struct{}) // closed once half of the jobs are in
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id, err := r.SubmitNowait(testJob(1+(g+i)%3, float64(1+(g*i)%5)))
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
				if len(accepted) == submitters*perSubmitter/2 {
					close(half)
				}
				mu.Unlock()
			}
		}(g)
	}
	// Drain under the submitters and the rebalancer: accepted jobs must
	// all complete, racing submits must all resolve.
	select {
	case <-half:
	case <-time.After(60 * time.Second):
		t.Fatal("submitters never got half of their jobs in")
	}
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

// TestStolenHistoryPruned: a stolen job's ownership entry outlives its
// record on the thief only until the next prune. 4000 jobs pinned to
// shard 0 are split in one scan, so shard 1 runs 2000 stolen jobs and
// keeps the records of only its newest ones. A stolen job the thief has
// forgotten answers service.Gone before the prune, through its entry,
// and after it, from the shard that issued it; the prune leaves exactly
// the entries of the jobs the thief still holds.
func TestStolenHistoryPruned(t *testing.T) {
	const n = 4000
	r := newStealRouter(t, 2, n, RouteSingle)
	ids := make([]workload.JobID, 0, n)
	for i := 0; i < n; i++ {
		id, err := r.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if moved := r.rebalanceOnce(); moved != n/2 {
		t.Fatalf("rebalance moved %d jobs, want %d", moved, n/2)
	}
	// The loops only, so no rebalancer tick prunes behind the test.
	r.Shard(0).Start()
	r.Shard(1).Start()
	stopDrained(t, r)
	held := len(r.Jobs(service.JobFilter{}))
	thiefHeld := len(r.Shard(1).Jobs(service.JobFilter{}))
	if thiefHeld == 0 || thiefHeld >= n/2 {
		t.Fatalf("the thief holds %d of its %d jobs; the test needs some, not all", thiefHeld, n/2)
	}

	lookups := func(when string) {
		t.Helper()
		gone := 0
		for _, id := range ids {
			info, ok := r.Job(id)
			switch {
			case ok && info.State == service.StateCompleted:
			case !ok && info == service.Gone(id):
				gone++
			default:
				t.Fatalf("%s: job %d: ok=%v info=%+v", when, id, ok, info)
			}
		}
		if gone != n-held {
			t.Fatalf("%s: %d jobs gone, want %d", when, gone, n-held)
		}
	}
	lookups("before the prune")
	r.migMu.Lock()
	r.pruneStolen()
	owned := len(r.owned)
	r.migMu.Unlock()
	if owned != thiefHeld {
		t.Fatalf("%d ownership entries after the prune, want the thief's %d", owned, thiefHeld)
	}
	lookups("after the prune")
}
