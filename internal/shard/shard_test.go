package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// fifo is a deliberately simple first-fit scheduler so router tests
// exercise the router, not a policy.
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

func newFifo(int) (sched.Scheduler, error) { return fifo{}, nil }

func testJob(tasks int, mean float64) *workload.Job {
	return &workload.Job{
		Name: "t", App: "test",
		Phases: []workload.Phase{{
			Name: "p", Tasks: tasks, Demand: resources.Cores(1, 1),
			MeanDuration: mean, SDDuration: 0,
		}},
	}
}

func newTestRouter(t *testing.T, shards, queueCap int, policy RoutePolicy) *Router {
	t.Helper()
	r, err := New(Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		Shards:        shards,
		NewScheduler:  newFifo,
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		Policy:        policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func stopDrained(t *testing.T, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestRouterConcurrentSubmitters is the sharding property test: 8
// goroutines push 512 jobs through a 4-shard router with deliberately
// small per-shard queues under -race. No job may be lost or duplicated
// across shards, every job must complete with coherent stamps, and the
// aggregated Counts must equal the sum of the per-shard Counts.
func TestRouterConcurrentSubmitters(t *testing.T) {
	const submitters = 8
	const perSubmitter = 64 // 512 total
	r := newTestRouter(t, 4, 16, RouteP2C)
	r.Start()

	var mu sync.Mutex
	seen := make(map[workload.JobID]bool)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j := testJob(1+(g+i)%4, float64(1+(g*i)%7))
				for {
					id, err := r.SubmitNowait(j)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					if seen[id] {
						t.Errorf("duplicate job ID %d across shards", id)
					}
					seen[id] = true
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()
	stopDrained(t, r)

	const total = submitters * perSubmitter
	if len(seen) != total {
		t.Fatalf("submitters hold %d IDs, want %d", len(seen), total)
	}
	agg := r.Counts()
	if agg.Submitted != total || agg.Admitted != total || agg.Completed != total {
		t.Fatalf("lost jobs: %+v, want %d submitted/admitted/completed", agg, total)
	}
	// Aggregated counts must equal the sum over per-shard status.
	var sum service.Counts
	for _, st := range r.Shards() {
		sum.Add(st.Jobs)
	}
	if sum != agg {
		t.Fatalf("aggregated Counts %+v != sum of per-shard Counts %+v", agg, sum)
	}
	// Every submitted ID resolves through the router to a completed job
	// on its owning shard.
	for id := range seen {
		info, ok := r.Job(id)
		if !ok {
			t.Fatalf("job %d lost", id)
		}
		if info.State != service.StateCompleted {
			t.Fatalf("job %d in state %s after drain", id, info.State)
		}
		if info.Flowtime < 0 || info.Finish < info.FirstStart || info.FirstStart < info.Arrival {
			t.Fatalf("job %d has incoherent stamps: %+v", id, info)
		}
		k := (int(id) - 1) % r.NumShards()
		if _, ok := r.Shard(k).Job(id); !ok {
			t.Fatalf("job %d not on its residue-class shard %d", id, k)
		}
	}
	// The merged job listing carries every job exactly once, sorted.
	jobs := r.Jobs(service.JobFilter{})
	if len(jobs) != total {
		t.Fatalf("Jobs() lists %d, want %d", len(jobs), total)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID <= jobs[i-1].ID {
			t.Fatalf("Jobs() not strictly sorted at %d: %d <= %d", i, jobs[i].ID, jobs[i-1].ID)
		}
	}
}

// TestRouterP1MatchesUnsharded is the equivalence certificate: the same
// deterministic workload pushed through (a) a bare batch engine, (b) an
// unsharded Service, and (c) a 1-shard Router must produce bit-for-bit
// identical per-job stamps and makespan.
func TestRouterP1MatchesUnsharded(t *testing.T) {
	const n = 40
	mkJobs := func() []*workload.Job {
		jobs := make([]*workload.Job, n)
		for i := range jobs {
			jobs[i] = testJob(1+i%5, float64(2+i%7))
		}
		return jobs
	}

	// (a) Batch engine: same jobs, IDs assigned as the service would.
	batchJobs := mkJobs()
	for i, j := range batchJobs {
		j.ID = workload.JobID(i + 1)
		j.Arrival = 0
	}
	eng, err := sim.New(sim.Config{
		Cluster: cluster.Uniform(8, resources.Cores(8, 16)), Scheduler: fifo{},
		Seed: 1, Deterministic: true, Jobs: batchJobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	// (b) Unsharded service: submit everything before Start so admission
	// order is the submission order at clock 0.
	svc, err := service.New(service.Config{
		Cluster: cluster.Uniform(8, resources.Cores(8, 16)), Scheduler: fifo{},
		Seed: 1, Deterministic: true, QueueCap: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range mkJobs() {
		if _, err := svc.SubmitNowait(j); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	// (c) 1-shard router.
	r, err := New(Config{
		Fleet: cluster.Uniform(8, resources.Cores(8, 16)), Shards: 1,
		NewScheduler: newFifo, Seed: 1, Deterministic: true, QueueCap: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range mkJobs() {
		if _, err := r.SubmitNowait(j); err != nil {
			t.Fatal(err)
		}
	}
	r.Start()
	stopDrained(t, r)

	bm := batch.ByJobID()
	svcJobs := svc.Jobs(service.JobFilter{})
	rJobs := r.Jobs(service.JobFilter{})
	if len(svcJobs) != n || len(rJobs) != n {
		t.Fatalf("job counts: service %d, router %d, want %d", len(svcJobs), len(rJobs), n)
	}
	for i := 0; i < n; i++ {
		s, rr := svcJobs[i], rJobs[i]
		if s != rr {
			t.Errorf("job %d diverged: service %+v vs router %+v", s.ID, s, rr)
		}
		b, ok := bm[s.ID]
		if !ok {
			t.Fatalf("job %d missing from batch run", s.ID)
		}
		if s.Flowtime != b.Flowtime || s.Finish != b.Finish || s.FirstStart != b.FirstStart {
			t.Errorf("job %d: service (flow %d, finish %d, start %d) vs batch (flow %d, finish %d, start %d)",
				s.ID, s.Flowtime, s.Finish, s.FirstStart, b.Flowtime, b.Finish, b.FirstStart)
		}
	}
	rRes, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	sRes, err := svc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rm, sm, bmk := rRes[0].Makespan, sRes.Makespan, batch.Makespan; rm != sm || sm != bmk {
		t.Errorf("makespan: router %d, service %d, batch %d", rm, sm, bmk)
	}
}

// TestRouterP2CSpreadsLoad submits to stopped shards (queue-only) and
// checks two-choice routing actually spreads jobs across partitions.
func TestRouterP2CSpreadsLoad(t *testing.T) {
	r := newTestRouter(t, 4, 256, RouteP2C)
	// Loops not started: queue depths are the only signal.
	for i := 0; i < 200; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for k, st := range r.Shards() {
		if st.QueueDepth == 0 {
			t.Errorf("shard %d received no jobs under p2c routing", k)
		}
		if st.QueueDepth > 200/2 {
			t.Errorf("shard %d hoards %d of 200 jobs", k, st.QueueDepth)
		}
	}
	r.Start()
	stopDrained(t, r)
}

// TestRouterSingleRoutesToShardZero pins the deterministic fallback.
func TestRouterSingleRoutesToShardZero(t *testing.T) {
	r := newTestRouter(t, 4, 256, RouteSingle)
	for i := 0; i < 20; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sts := r.Shards()
	if sts[0].QueueDepth != 20 {
		t.Fatalf("shard 0 queue %d, want 20", sts[0].QueueDepth)
	}
	for k := 1; k < 4; k++ {
		if sts[k].QueueDepth != 0 {
			t.Fatalf("shard %d queue %d under single routing", k, sts[k].QueueDepth)
		}
	}
	r.Start()
	stopDrained(t, r)
}

// TestRouterSpillsOnFullShard: RouteSingle pins to shard 0, but a full
// shard-0 queue spills to another shard instead of rejecting while the
// deployment has room.
func TestRouterSpillsOnFullShard(t *testing.T) {
	r := newTestRouter(t, 2, 2, RouteSingle)
	// Loops stopped: shard 0 fills at 2 jobs, the next two spill to 1.
	for i := 0; i < 4; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := r.SubmitNowait(testJob(1, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull once every shard is full, got %v", err)
	}
	sts := r.Shards()
	if sts[0].QueueDepth != 2 || sts[1].QueueDepth != 2 {
		t.Fatalf("queue depths %d/%d, want 2/2", sts[0].QueueDepth, sts[1].QueueDepth)
	}
	r.Start()
	stopDrained(t, r)
	if c := r.Counts(); c.Completed != 4 {
		t.Fatalf("completed %d, want 4", c.Completed)
	}
}

// TestRouterSubmitNowaitSpill pins SubmitNowait's spill rules with no
// loop running, so every outcome is the router's decision alone: a
// draining shard is skipped, a full one is skipped, what is left decides
// between placed, ErrQueueFull and ErrStopped, an invalid job is refused
// by the first shard asked, and the edge policy is charged once per call
// however many shards the spill visits.
func TestRouterSubmitNowaitSpill(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		policy  bool
		drain   []int // shards stopped before the call
		fill    []int // shards whose one queue slot is taken before the call
		invalid bool  // submit a job with no phases
		wantErr error // nil: placed on wantOn
		wantOn  int
		charges int64 // policy decisions the call itself may cost
	}{
		{name: "chosen shard draining, sibling has room", shards: 2, drain: []int{0}, wantOn: 1},
		{name: "one shard draining, the other full", shards: 2, drain: []int{0}, fill: []int{1}, wantErr: ErrQueueFull},
		{name: "all draining", shards: 2, drain: []int{0, 1}, wantErr: ErrStopped},
		{name: "invalid job, no policy", shards: 2, invalid: true},
		{name: "invalid job is never charged", shards: 2, policy: true, invalid: true, charges: 0},
		{name: "spill over two full shards is charged once", shards: 3, policy: true, fill: []int{0, 1}, wantOn: 2, charges: 1},
		{name: "refused everywhere is still charged once", shards: 3, policy: true, fill: []int{0, 1, 2}, wantErr: ErrQueueFull, charges: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Fleet:         cluster.Uniform(6, resources.Cores(8, 16)),
				Shards:        tc.shards,
				NewScheduler:  newFifo,
				Seed:          1,
				Deterministic: true,
				QueueCap:      1,
				Policy:        RouteSingle, // the chosen shard is always 0
			}
			var bucket *admission.TokenBucket
			if tc.policy {
				bucket = admission.NewTokenBucket(admission.TokenBucketConfig{Rate: 1, Burst: 100})
				cfg.Admission = bucket
			}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Fill through the shard, not the router: the policy then
			// counts nothing but the call under test.
			for _, k := range tc.fill {
				if _, err := r.Shard(k).SubmitNowait(testJob(1, 2)); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, k := range tc.drain {
				if err := r.Shard(k).Stop(ctx); err != nil {
					t.Fatal(err)
				}
			}
			job := testJob(1, 2)
			if tc.invalid {
				job.Phases = nil
			}
			id, err := r.SubmitNowait(job)
			switch {
			case tc.invalid:
				if err == nil || errors.Is(err, ErrQueueFull) || errors.Is(err, ErrStopped) {
					t.Fatalf("invalid job: got (%d, %v), want a validation error", id, err)
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("got (%d, %v), want %v", id, err, tc.wantErr)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if on := (int(id) - 1) % tc.shards; on != tc.wantOn {
					t.Fatalf("job %d landed on shard %d, want %d", id, on, tc.wantOn)
				}
			}
			for k := range r.routed {
				want := 0.0
				if err == nil && k == tc.wantOn {
					want = 1
				}
				if got := r.routed[k].Value(); got != want {
					t.Errorf("routed[%d] = %v, want %v", k, got, want)
				}
			}
			if bucket != nil {
				st := bucket.Stats()
				if got := st.Admitted + st.Denied; got != tc.charges {
					t.Errorf("policy charged %d times, want %d", got, tc.charges)
				}
			}
			stopDrained(t, r)
		})
	}
}

// TestRouterAggregatedSnapshot checks the merged cluster view.
func TestRouterAggregatedSnapshot(t *testing.T) {
	r := newTestRouter(t, 4, 64, RouteP2C)
	snap := r.Snapshot()
	if snap.Shards != 4 {
		t.Fatalf("snapshot shards %d", snap.Shards)
	}
	if len(snap.Servers) != 8 {
		t.Fatalf("aggregated servers %d, want 8", len(snap.Servers))
	}
	if snap.Scheduler != "fifo" {
		t.Fatalf("scheduler %q", snap.Scheduler)
	}
	names := make(map[string]bool)
	for _, s := range snap.Servers {
		if names[s.Name] {
			t.Fatalf("duplicate server %q in aggregated snapshot", s.Name)
		}
		names[s.Name] = true
	}
	r.Start()
	stopDrained(t, r)
	if !r.Snapshot().Draining {
		t.Fatal("drained router snapshot not marked draining")
	}
}

// TestRouterMetricsMerged certifies the merged exposition: one valid
// Prometheus document with per-shard labelled series plus router
// series.
func TestRouterMetricsMerged(t *testing.T) {
	r := newTestRouter(t, 3, 64, RouteP2C)
	r.Start()
	for i := 0; i < 30; i++ {
		if _, err := r.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stopDrained(t, r)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, b.String())
	}
	var completed, routed float64
	shardsSeen := map[string]bool{}
	for _, s := range samples {
		switch s.Name {
		case "dollymp_jobs_completed_total":
			completed += s.Value
			shardsSeen[s.Labels] = true
		case "dollymp_router_jobs_routed_total":
			routed += s.Value
		}
	}
	if completed != 30 {
		t.Fatalf("summed completed %v, want 30", completed)
	}
	if routed != 30 {
		t.Fatalf("summed routed %v, want 30", routed)
	}
	if len(shardsSeen) != 3 {
		t.Fatalf("completed series for %d shards, want 3", len(shardsSeen))
	}
}

func TestRouterConfigValidation(t *testing.T) {
	fleet := cluster.Uniform(4, resources.Cores(4, 8))
	if _, err := New(Config{Shards: 2, NewScheduler: newFifo}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	if _, err := New(Config{Fleet: fleet, Shards: 2}); err == nil {
		t.Fatal("nil scheduler factory accepted")
	}
	if _, err := New(Config{Fleet: fleet, Shards: 8, NewScheduler: newFifo}); err == nil {
		t.Fatal("more shards than servers accepted")
	}
	if _, err := New(Config{Fleet: fleet, Shards: 2, NewScheduler: newFifo, Policy: "wat"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Config{Fleet: fleet, Shards: -1, NewScheduler: newFifo}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
