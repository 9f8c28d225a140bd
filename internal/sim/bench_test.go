package sim

import (
	"runtime"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// BenchmarkEngineSingleJobs measures raw engine throughput: placement,
// completion, and bookkeeping for independent single-task jobs.
func BenchmarkEngineSingleJobs(b *testing.B) {
	jobs := make([]*workload.Job, 200)
	for i := range jobs {
		jobs[i] = workload.SingleTask(workload.JobID(i), int64(i), resources.Cores(1, 2), 5, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: greedy{}, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWithClones measures the extra cost of clone bookkeeping
// (two copies per task, kills, budget accounting).
func BenchmarkEngineWithClones(b *testing.B) {
	jobs := make([]*workload.Job, 200)
	for i := range jobs {
		jobs[i] = workload.SingleTask(workload.JobID(i), int64(i), resources.Cores(1, 2), 5, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: cloner{}, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// cloningDrain is a light-load workload in the shape of the repo
// benchmark's paced-2k, scaled to a 300-server fleet: Google-like jobs
// arriving 20 to a slot, so nearly every task is cloned and what the
// engine pays per copy is the cost.
func cloningDrain(n int) (*cluster.Cluster, []*workload.Job) {
	jobs := trace.DefaultGoogleLike(n, 1.0, 42).Generate()
	for i, j := range jobs {
		j.Arrival = int64(i / 20)
	}
	return cluster.LargeFleet(300, 1), jobs
}

// BenchmarkEngineDrainCloning drains cloningDrain under DollyMP² and
// reports the cost per launched copy, scheduler included.
func BenchmarkEngineDrainCloning(b *testing.B) {
	fleet, jobs := cloningDrain(6000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	copies := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{
			Cluster: fleet, Jobs: jobs, Scheduler: core.MustNew(core.WithClones(2)),
			Seed: 1, CompactJobs: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		copies += res.Digest.CopiesLaunched
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(copies), "ns/copy")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(copies), "allocs/copy")
	b.ReportMetric(float64(copies)/float64(b.N*len(jobs)), "copies/job")
}
