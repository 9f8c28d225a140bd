package sim

import (
	"runtime"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sim/simtest"
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
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: Greedy{}, Seed: uint64(i),
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
			Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: Cloner{}, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// cloningDrain is the first n jobs of the cloning-300 row: a light
// load, so nearly every task is cloned and what the engine pays per
// copy is the cost.
func cloningDrain(n int) (*cluster.Cluster, []*workload.Job) {
	r := simtest.Rows[0]
	r.Jobs = n
	return r.Build()
}

// BenchmarkEngineDrain drains each row through Engine.Drain, as the
// repo benchmark and dollymp-sim's stream replay drive the engine, and
// reports the cost per launched copy, scheduler included. `make
// profile-engine` profiles one row of it.
func BenchmarkEngineDrain(b *testing.B) {
	for _, r := range simtest.Rows {
		b.Run(r.Name, func(b *testing.B) {
			fleet, open := r.Source(b)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			copies := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := New(Config{
					Cluster: fleet, Scheduler: core.MustNew(core.WithClones(2)),
					Seed: 1, Online: true, CompactJobs: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Drain(open())
				if err != nil {
					b.Fatal(err)
				}
				r.Check(b, res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls)
				copies += res.Digest.CopiesLaunched
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(copies), "ns/copy")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(copies), "allocs/copy")
			b.ReportMetric(float64(copies)/float64(b.N*r.Jobs), "copies/job")
		})
	}
}
