package core_test

import (
	"fmt"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// BenchmarkPriorities measures Algorithm 1 at the 1K-job scale.
func BenchmarkPriorities(b *testing.B) {
	rng := stats.NewRNG(1)
	infos := make([]core.JobInfo, 1000)
	for i := range infos {
		infos[i] = core.JobInfo{
			ID:       workload.JobID(i),
			Volume:   rng.Range(0.01, 5),
			Time:     rng.Range(1, 60),
			Dominant: rng.Range(0.001, 0.05),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.Priorities(infos); len(got) != 1000 {
			b.Fatal("missing priorities")
		}
	}
}

// BenchmarkScheduleDecision measures one Algorithm 2 placement round on
// the 30-node testbed with a 100-job queue.
func BenchmarkScheduleDecision(b *testing.B) {
	rng := stats.NewRNG(2)
	ctx := schedtest.New(cluster.Testbed30())
	for i := 0; i < 100; i++ {
		ctx.MustAddJob(&workload.Job{
			ID: workload.JobID(i), Name: "b", App: "bench",
			Phases: []workload.Phase{{
				Name:         "p",
				Tasks:        1 + rng.Intn(20),
				Demand:       resources.Vec(500+int64(rng.Intn(2000)), 1024+int64(rng.Intn(4096))),
				MeanDuration: rng.Range(2, 30),
				SDDuration:   rng.Range(0, 20),
			}},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.MustNew()
		if got := s.Schedule(ctx); len(got) == 0 {
			b.Fatal("no placements")
		}
	}
}

// BenchmarkEndToEndHeavyLoad measures a complete DollyMP² simulation of
// a 50-job heavy-load workload on the testbed.
func BenchmarkEndToEndHeavyLoad(b *testing.B) {
	jobs := make([]*workload.Job, 50)
	rng := stats.NewRNG(3)
	for i := range jobs {
		m := rng.Range(4, 16)
		jobs[i] = workload.Chain(workload.JobID(i), "j", "bench", int64(i*2), []workload.Phase{
			{Name: "a", Tasks: 8, Demand: resources.Cores(1, 2), MeanDuration: m, SDDuration: m},
			{Name: "b", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: m / 2, SDDuration: m / 4},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := sim.New(sim.Config{
			Cluster: cluster.Testbed30(), Jobs: jobs,
			Scheduler: core.MustNew(), Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 50 {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkTransientSchedule measures Algorithm 1's admission loop.
func BenchmarkTransientSchedule(b *testing.B) {
	rng := stats.NewRNG(4)
	jobs := make([]core.TransientJob, 200)
	h := func(r int) float64 { return stats.ParetoSpeedup(2, r) }
	for i := range jobs {
		jobs[i] = core.TransientJob{
			ID:       workload.JobID(i),
			Dominant: rng.Range(0.01, 0.5),
			Duration: rng.Range(1, 40),
			Speedup:  h,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TransientSchedule(jobs, core.CorollaryClones); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompute measures one Algorithm 1 recomputation — job infos,
// classification, regroup — at the active-job counts of the repo
// benchmark's replay-32, paced-2k and backlog-200 workloads.
func BenchmarkRecompute(b *testing.B) {
	for _, n := range []int{25, 3000, 15000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			ctx := schedtest.New(cluster.LargeFleet(200, 1))
			for _, j := range trace.DefaultGoogleLike(n, 1.0, 42).Generate() {
				j.Arrival = 0 // all active at the fake's clock
				ctx.MustAddJob(j)
			}
			s := core.MustNew()
			s.RecomputePriorities(ctx) // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RecomputePriorities(ctx)
			}
		})
	}
}
