package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// BenchmarkRouterDrain measures end-to-end jobs/sec through the sharded
// service core (submit + schedule + drain, no HTTP): the in-process
// companion to the dollympd/-load acceptance benchmark.
func BenchmarkRouterDrain(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := New(Config{
					Fleet:  cluster.LargeFleet(64, 1),
					Shards: shards,
					NewScheduler: func(int) (sched.Scheduler, error) {
						return core.New(core.WithClones(2))
					},
					Seed: 7, QueueCap: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
				jobs := benchJobs(512)
				b.StartTimer()

				r.Start()
				for _, j := range jobs {
					if _, err := r.SubmitNowait(j); err != nil {
						b.Fatal(err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				if err := r.Stop(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
				if c := r.Counts(); c.Completed != int64(len(jobs)) {
					b.Fatalf("completed %d of %d", c.Completed, len(jobs))
				}
			}
			b.ReportMetric(float64(512*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkRouterSubmitDurable is the durable intake path without HTTP:
// two closed-loop callers each repeat "submit one job, read back its
// status" against a journaled 2-shard router, the shape of the repo
// benchmark's daemon-durable workload. Every submit waits for its
// `submitted` record's fsync, so jobs/s is mostly the disk; fsyncs/job
// says how many of those each acknowledged job paid for (1 when only
// the ack waits), and B/op what the loops allocate beside it. `make
// profile-daemon` runs it under the CPU profiler.
func BenchmarkRouterSubmitDurable(b *testing.B) {
	const callers = 2
	r, err := New(Config{
		Fleet:  cluster.LargeFleet(200, 1),
		Shards: 2,
		NewScheduler: func(int) (sched.Scheduler, error) {
			return core.New(core.WithClones(2))
		},
		Seed: 7, QueueCap: 4096,
		JournalDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs := benchJobs(b.N)
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()

	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(jobs); i += callers {
				id, err := r.SubmitNowait(jobs[i])
				if err != nil {
					b.Error(err)
					return
				}
				if info, ok := r.Job(id); !ok || info.ID != id {
					b.Errorf("status of job %d: %+v, %v", id, info, ok)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	// The status view is read before Stop closes the segments.
	fsyncs := r.JournalStatus().Fsyncs
	if err := r.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if c := r.Counts(); c.Completed != int64(len(jobs)) {
		b.Fatalf("completed %d of %d", c.Completed, len(jobs))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/job")
}

func benchJobs(n int) []*workload.Job {
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		jobs[i] = &workload.Job{
			Name: "b", App: "bench",
			Phases: []workload.Phase{{
				Name: "p", Tasks: 2 + i%8, Demand: resources.Cores(1, 2),
				MeanDuration: float64(3 + i%10), SDDuration: 1,
			}},
		}
	}
	return jobs
}
