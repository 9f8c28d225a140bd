package core_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched/schedtest"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

func TestAvoidancePrefersFastServer(t *testing.T) {
	fleet := cluster.Uniform(3, resources.Cores(4, 8))
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	// Learned estimates: server 2 fast, server 0 slow, server 1 unknown.
	ctx.SpeedOverride[0] = schedtest.SpeedEstimate{Speed: 0.3, N: 10}
	ctx.SpeedOverride[2] = schedtest.SpeedEstimate{Speed: 2.0, N: 10}

	s := core.MustNew(core.WithClones(0), core.WithStragglerAvoidance(true))
	ps := s.Schedule(ctx)
	if len(ps) != 1 || ps[0].Server != 2 {
		t.Fatalf("should place on the fastest learned server: %+v", ps)
	}

	// Invalidation: once server 1 learns a higher speed, the cached
	// order must be rebuilt, not replayed.
	ctx.SpeedOverride[1] = schedtest.SpeedEstimate{Speed: 3.0, N: 10}
	ctx.MustAddJob(workload.SingleTask(2, 0, resources.Cores(1, 1), 10, 5))
	ps = s.Schedule(ctx)
	if len(ps) == 0 || ps[0].Server != 1 {
		t.Fatalf("cached order must refresh on speed change: %+v", ps)
	}

	// Without avoidance the lowest-ID server wins.
	plain := core.MustNew(core.WithClones(0))
	ps = plain.Schedule(schedCopy(t, fleet))
	if len(ps) != 1 || ps[0].Server != 0 {
		t.Fatalf("plain DollyMP should use server 0: %+v", ps)
	}
}

func schedCopy(t *testing.T, fleet *cluster.Cluster) *schedtest.Context {
	t.Helper()
	fleet.Reset()
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	return ctx
}

func TestAvoidanceUnknownServersDefaultToSpeedOne(t *testing.T) {
	fleet := cluster.Uniform(2, resources.Cores(4, 8))
	ctx := schedtest.New(fleet)
	ctx.MustAddJob(workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 5))
	// Server 1 has learned speed 0.5 < default 1 → server 0 preferred.
	ctx.SpeedOverride[1] = schedtest.SpeedEstimate{Speed: 0.5, N: 4}
	s := core.MustNew(core.WithClones(0), core.WithStragglerAvoidance(true))
	ps := s.Schedule(ctx)
	if len(ps) != 1 || ps[0].Server != 0 {
		t.Fatalf("unknown server should rank at speed 1: %+v", ps)
	}
}

func TestAvoidanceEndToEndOnDegradedFleet(t *testing.T) {
	// Server 0 is crippled from slot 0; with learning on, jobs should
	// drift to servers 1-3 and total flowtime should not exceed the
	// plain scheduler's.
	mk := func(avoid bool) int64 {
		fleet := cluster.Uniform(4, resources.Cores(2, 4))
		jobs := make([]*workload.Job, 40)
		for i := range jobs {
			jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*2), resources.Cores(1, 1), 8, 6)
		}
		opts := []core.Option{core.WithClones(2)}
		if avoid {
			opts = append(opts, core.WithStragglerAvoidance(true))
		}
		e, err := sim.New(sim.Config{
			Cluster: fleet, Jobs: jobs, Scheduler: core.MustNew(opts...), Seed: 3,
			Paranoid: true,
			Events:   []sim.Event{{At: 0, Server: 0, Kind: sim.EventSlowdown, Factor: 0.15}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalFlowtime()
	}
	plain := mk(false)
	learned := mk(true)
	if learned > plain {
		t.Fatalf("avoidance should not hurt on a degraded fleet: %d vs %d", learned, plain)
	}
}
