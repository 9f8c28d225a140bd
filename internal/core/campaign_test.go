package core_test

// Regression tests for the hot-path bugs the decision-cost campaign
// exposed: the class-count explosion under cluster-filling tasks and
// the estimator's double-Record path.

import (
	"fmt"
	"slices"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// TestScheduleClusterFillingTask pins the class-count cap: a task whose
// dominant share is 1 clamps maxD to 1−1e-9, which used to inflate g by
// ~30 classes — and with large volumes past the point where
// math.Pow(2, l) overflows to +Inf. The scheduler must still classify
// and place the workload, and every class must stay within the cap.
func TestScheduleClusterFillingTask(t *testing.T) {
	fleet := cluster.Uniform(2, resources.Cores(4, 8))
	ctx := schedtest.New(fleet)
	// One task demanding the entire cluster: dominant share 1.
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(8, 16), 10, 5))
	for i := 2; i <= 4; i++ {
		ctx.MustAddJob(workload.SingleTask(workload.JobID(i), 0, resources.Cores(1, 1), 5, 2))
	}
	s := core.MustNew(core.WithClones(0))
	ps := s.Schedule(ctx)
	if len(ps) == 0 {
		t.Fatal("cluster-filling workload produced no placements")
	}
}

// TestPrioritiesClassCap drives Algorithm 1 directly into the explosion
// regime: dominant share 1 and a volume large enough that the uncapped
// g (≈ log2(1e300/1e-9) ≈ 1030) would push math.Pow(2, l) to +Inf.
// Every job must still land in a finite class within the cap.
func TestPrioritiesClassCap(t *testing.T) {
	jobs := []core.JobInfo{
		{ID: 1, Volume: 1e300, Time: 4, Dominant: 1.0},
		{ID: 2, Volume: 0.5, Time: 2, Dominant: 0.2},
		{ID: 3, Volume: 0.1, Time: 1, Dominant: 0.1},
	}
	prios := core.Priorities(jobs)
	if len(prios) != len(jobs) {
		t.Fatalf("missing priorities: %v", prios)
	}
	const classCap = 64
	for id, p := range prios {
		if p < 1 || p > classCap+1 {
			t.Fatalf("job %d classified into %d, outside [1, %d]", id, p, classCap+1)
		}
	}
	// The small jobs must not be dragged into the overflow class by the
	// monster job's volume.
	if prios[3] > prios[1] {
		t.Fatalf("small job ranked after cluster-filling job: %v", prios)
	}
}

// TestEstimatorRecordsFoldOnce pins the double-Record path: in one
// slot, the same observed (mean, sd, n) reaches the estimator through
// both the arrival recompute (estimatePhase) and the Schedule-time
// harvest. The watermark dedup must fold it exactly once — the history
// summary holds n samples, not 2n.
func TestEstimatorRecordsFoldOnce(t *testing.T) {
	fleet := cluster.Uniform(2, resources.Cores(8, 16))
	ctx := schedtest.New(fleet)
	js := ctx.MustAddJob(&workload.Job{
		ID: 1, Name: "j", App: "app",
		Phases: []workload.Phase{{
			Name: "map", Tasks: 10,
			Demand:       resources.Cores(1, 1),
			MeanDuration: 10, SDDuration: 5,
		}},
	})
	const n = 5
	ctx.StatsOverride[schedtest.PhaseKey{Job: 1, Phase: 0}] = schedtest.PhaseStats{Mean: 12, SD: 3, N: n}

	s := core.MustNew(core.WithClones(0), core.WithEstimation(estimate.Config{MinSamples: 3}))
	s.OnJobArrival(ctx, js)
	if got := s.Schedule(ctx); len(got) == 0 {
		t.Fatal("no placements")
	}

	key := estimate.Key{App: "app", Phase: "map"}
	est := core.EstimatorOf(s)
	if got := est.HistorySamples(key); got != n {
		t.Fatalf("history holds %d samples after arrival+harvest, want exactly %d", got, n)
	}
	if got := est.ObservedSamples(key); got != n {
		t.Fatalf("watermark %d, want %d", got, n)
	}

	// Re-scheduling the same slot re-harvests the same stats: still n.
	s.Schedule(ctx)
	if got := est.HistorySamples(key); got != n {
		t.Fatalf("history holds %d samples after second harvest, want %d", got, n)
	}
}

// benchBacklog builds a deep multi-phase backlog against an n-server
// fleet: enough queued tasks that the placement pass drains every
// server, with demands sized so classes span several priorities.
func benchBacklog(b testing.TB, servers, jobs, maxTasks int) *schedtest.Context {
	b.Helper()
	ctx := schedtest.New(cluster.LargeFleet(servers, 7))
	rng := stats.NewRNG(11)
	for i := 0; i < jobs; i++ {
		ctx.MustAddJob(&workload.Job{
			ID: workload.JobID(i + 1), Name: fmt.Sprintf("b%d", i), App: "bench",
			Phases: []workload.Phase{{
				Name:         "p",
				Tasks:        1 + rng.Intn(maxTasks),
				Demand:       resources.Vec(500+int64(rng.Intn(2000)), 1024+int64(rng.Intn(4096))),
				MeanDuration: rng.Range(2, 30),
				SDDuration:   rng.Range(0, 20),
			}},
		})
	}
	return ctx
}

// BenchmarkScheduleDecision200 measures one warm placement round at the
// drain-profile scale: 200 servers, 400 queued jobs, deep backlog. The
// scheduler is constructed once so scratch reuse is on the measured
// path, as in a live engine.
func BenchmarkScheduleDecision200(b *testing.B) {
	ctx := benchBacklog(b, 200, 400, 100)
	s := core.MustNew()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Schedule(ctx); len(got) == 0 {
			b.Fatal("no placements")
		}
	}
}

// BenchmarkScheduleDecision2000 is the past-200-servers target of the
// campaign: 2000 servers with a proportionally deeper backlog.
func BenchmarkScheduleDecision2000(b *testing.B) {
	ctx := benchBacklog(b, 2000, 1000, 200)
	s := core.MustNew()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Schedule(ctx); len(got) == 0 {
			b.Fatal("no placements")
		}
	}
}

// BenchmarkScheduleDecision2000Clones is the other regime at that fleet
// size, the one a lightly loaded cluster spends its time in: every task
// already runs, so the call is clone passes only — a walk over the
// running tasks and one best-fit query per granted copy. The originals
// are placed once, by a clone-free scheduler; the measured scheduler's
// grants are never applied, so every iteration decides the same round.
func BenchmarkScheduleDecision2000Clones(b *testing.B) {
	ctx := benchBacklog(b, 2000, 300, 40)
	if err := ctx.Apply(core.MustNew(core.WithClones(0)).Schedule(ctx)); err != nil {
		b.Fatal(err)
	}
	s := core.MustNew()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Schedule(ctx); len(got) == 0 {
			b.Fatal("no clones granted")
		}
	}
}

// packedBacklog is the packing regime at the repo benchmark's
// backlog-200 scale: 15 000 Google-like multi-phase jobs queued on 200
// servers that a clone-free pass has filled, after which running tasks
// were completed until the fleet is at most 92 % full. It keeps its own
// Jobs() list — the fake's scans 15 000 states per call — cut the way
// the engine cuts it, so it honours the sched.Context contract.
type packedBacklog struct {
	*schedtest.Context
	jobs    []*workload.JobState
	running []workload.TaskRef // placed by us, oldest first
}

func (p *packedBacklog) Jobs() []*workload.JobState { return p.jobs }

func newPackedBacklog(tb testing.TB) *packedBacklog {
	tb.Helper()
	p := &packedBacklog{Context: schedtest.New(cluster.LargeFleet(200, 1))}
	for _, j := range trace.DefaultGoogleLike(15_000, 1.0, 42).Generate() {
		j.Arrival = 0
		p.jobs = append(p.jobs, p.MustAddJob(j))
	}
	p.apply(tb, core.MustNew(core.WithClones(0)).Schedule(p))
	total := p.Fleet.Total()
	for used := p.Fleet.TotalUsed(); used.CPUMilli*100 > total.CPUMilli*92; used = p.Fleet.TotalUsed() {
		p.complete(tb, 1)
	}
	return p
}

// apply launches the placements, as the engine would.
func (p *packedBacklog) apply(tb testing.TB, ps []sched.Placement) {
	tb.Helper()
	if err := p.Apply(ps); err != nil {
		tb.Fatal(err)
	}
	for _, pl := range ps {
		if p.find(pl.Ref.Job).LiveCopies(pl.Ref.Phase, pl.Ref.Index) == 1 {
			p.running = append(p.running, pl.Ref)
		}
	}
}

// complete finishes the n longest-running tasks and cuts finished jobs
// out of the list.
func (p *packedBacklog) complete(tb testing.TB, n int) {
	tb.Helper()
	finished := false
	for _, ref := range p.running[:n] {
		if err := p.Complete(ref); err != nil {
			tb.Fatal(err)
		}
		finished = finished || p.find(ref.Job).Done()
	}
	p.running = p.running[n:]
	if finished {
		kept := p.jobs[:0]
		for _, js := range p.jobs {
			if !js.Done() {
				kept = append(kept, js)
			}
		}
		p.jobs = kept
	}
}

// find is the fake's job lookup without its linear scan: the generator
// numbers jobs from 0 in JobStates order.
func (p *packedBacklog) find(id workload.JobID) *workload.JobState { return p.JobStates[id] }

// BenchmarkScheduleDecisionBacklog measures a decision point of the
// packing regime the way the engine's schedule loop spends it: one
// productive call that refills what completions freed, then — its
// placements applied — the confirm call that finds nothing more to do.
// Between iterations as many tasks complete as were just placed, so the
// fleet stays about 92 % full; every 64 iterations a fresh backlog
// replaces the one being drained. Neither is on the clock.
func BenchmarkScheduleDecisionBacklog(b *testing.B) {
	var p *packedBacklog
	var s *core.Scheduler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 0 {
			p, s = newPackedBacklog(b), core.MustNew()
			s.Schedule(p) // classify and index the backlog off the clock, as at arrival
		} else {
			p.complete(b, min(placed, len(p.running)))
		}
		b.StartTimer()
		ps := s.Schedule(p)
		b.StopTimer()
		if placed = len(ps); placed == 0 {
			b.Fatal("no placements")
		}
		p.apply(b, ps)
		b.StartTimer()
		if again := s.Schedule(p); len(again) > placed/4 {
			b.Fatalf("confirm call placed %d after %d", len(again), placed)
		}
	}
}

// placed is the size of BenchmarkScheduleDecisionBacklog's last
// productive round.
var placed int

// frozenJobs is a schedtest.Context whose job list is built once: the
// test context sorts a fresh slice per Jobs call, which would drown the
// scheduler's own allocations.
type frozenJobs struct {
	*schedtest.Context
	jobs []*workload.JobState
}

func (f *frozenJobs) Jobs() []*workload.JobState { return f.jobs }

// TestScheduleSteadyStateAllocs pins both regimes of a decision at zero
// allocations once the scratch buffers have grown. The returned slice is
// the scheduler's own (see sched.Scheduler): built afresh per call it
// was 40 % of the bytes a 100k-job replay allocated, and collector
// cycles are work whose timing the engine loop does not control. No
// case applies its placements, so every call also takes back what the
// one before did to the records and head indexes — and must return the
// same round again.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	packing := benchBacklog(t, 200, 400, 100)
	cloning := benchBacklog(t, 200, 30, 20)
	if err := cloning.Apply(core.MustNew(core.WithClones(0)).Schedule(cloning)); err != nil {
		t.Fatal(err)
	}
	backlog := newPackedBacklog(t)
	for name, ctx := range map[string]sched.Context{
		"packing": &frozenJobs{packing, packing.Jobs()},
		"cloning": &frozenJobs{cloning, cloning.Jobs()},
		"backlog": backlog, // deep head indexes, heads moving mid-call
	} {
		s := core.MustNew()
		want := append([]sched.Placement(nil), s.Schedule(ctx)...)
		if len(want) == 0 {
			t.Fatalf("%s: no placements", name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if got := s.Schedule(ctx); !slices.Equal(got, want) {
				t.Fatalf("%s: a round that was not applied came back different: %d placements, then %d", name, len(want), len(got))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per steady-state Schedule call, want 0", name, allocs)
		}
	}
}
