package sim

import (
	"io"
	"path/filepath"
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

// drainRow is one engine drain worth a profile: Google-like jobs
// (seed 42) under DollyMP² on a LargeFleet, engine and fleet seed 1,
// with the schedule the row must reproduce. A profile of a drain that
// schedules differently describes some other run.
type drainRow struct {
	name string
	jobs int
	// perSlot paces arrivals (job i arrives at slot i/perSlot); 0 makes
	// every job arrive at slot 0.
	perSlot, servers int
	// replay keeps the generator's own arrivals (mean gap 1 slot) and
	// streams the jobs from an on-disk trace: frame decode is part of
	// the drain.
	replay bool
	// flowtime is the total over all jobs, in slots.
	flowtime, makespan int64
	calls              int
}

// drainRows: cloning-300 is paced-2k's regime scaled to a fleet that
// drains in a fraction of a second. The other three are the repo
// benchmark's workloads of the same names (bench/spec.go) and their
// numbers are the ones it pins: mean JCT 22.6593, 167.1699 and 16.4829
// slots.
var drainRows = []drainRow{
	{name: "cloning-300", jobs: 6000, perSlot: 20, servers: 300, flowtime: 136_571, makespan: 347, calls: 716},
	{name: "paced-2k", jobs: 60_000, perSlot: 130, servers: 2000, flowtime: 1_359_555, makespan: 511, calls: 1048},
	{name: "backlog-200", jobs: 15_000, servers: 200, flowtime: 2_507_548, makespan: 572, calls: 1136},
	{name: "replay-32", jobs: 100_000, servers: 32, replay: true, flowtime: 1_648_294, makespan: 135_222, calls: 363_252},
}

func (r drainRow) build() (*cluster.Cluster, []*workload.Job) {
	jobs := trace.DefaultGoogleLike(r.jobs, 1.0, 42).Generate()
	for i, j := range jobs {
		j.Arrival = 0
		if r.perSlot > 0 {
			j.Arrival = int64(i / r.perSlot)
		}
	}
	return cluster.LargeFleet(r.servers, 1), jobs
}

// writeTrace streams a replay row's jobs, arrivals as generated, to a
// trace file as they are drawn and returns its path.
func (r drainRow) writeTrace(tb testing.TB) string {
	path := filepath.Join(tb.TempDir(), "replay.trace")
	w, err := trace.CreateStream(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := trace.DefaultGoogleLike(r.jobs, 1.0, 42).Emit(w.Append); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// cloningDrain is the first n jobs of the cloning-300 row: a light
// load, so nearly every task is cloned and what the engine pays per
// copy is the cost.
func cloningDrain(n int) (*cluster.Cluster, []*workload.Job) {
	r := drainRows[0]
	r.jobs = n
	return r.build()
}

// sliceSource yields jobs in order, then io.EOF: Drain's view of a
// workload held in memory.
func sliceSource(jobs []*workload.Job) func() (*workload.Job, error) {
	return func() (*workload.Job, error) {
		if len(jobs) == 0 {
			return nil, io.EOF
		}
		j := jobs[0]
		jobs = jobs[1:]
		return j, nil
	}
}

// BenchmarkEngineDrain drains each row through Engine.Drain, as the
// repo benchmark and dollymp-sim's stream replay drive the engine, and
// reports the cost per launched copy, scheduler included. `make
// profile-engine` profiles one row of it.
func BenchmarkEngineDrain(b *testing.B) {
	for _, r := range drainRows {
		b.Run(r.name, func(b *testing.B) {
			var fleet *cluster.Cluster
			var source func() func() (*workload.Job, error)
			if r.replay {
				fleet = cluster.LargeFleet(r.servers, 1)
				path := r.writeTrace(b)
				source = func() func() (*workload.Job, error) {
					s, err := trace.OpenStream(path)
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { s.Close() })
					return s.Next
				}
			} else {
				var jobs []*workload.Job
				fleet, jobs = r.build()
				source = func() func() (*workload.Job, error) { return sliceSource(jobs) }
			}
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
				res, err := e.Drain(source())
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != r.jobs || res.TotalFlowtime() != r.flowtime || res.Makespan != r.makespan || res.SchedCalls != r.calls {
					b.Fatalf("completed %d, flowtime %d, makespan %d, %d Schedule calls; the row pins %d, %d, %d, %d",
						res.Completed, res.TotalFlowtime(), res.Makespan, res.SchedCalls,
						r.jobs, r.flowtime, r.makespan, r.calls)
				}
				copies += res.Digest.CopiesLaunched
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(copies), "ns/copy")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(copies), "allocs/copy")
			b.ReportMetric(float64(copies)/float64(b.N*r.jobs), "copies/job")
		})
	}
}
