package sim_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// directed places copies at fixed servers: originals of the reduce phase
// on the slow server, everything else (including clones) on fast
// servers, so the reduce clone is the copy that wins the race and any
// penalty it pays moves the completion time.
type directed struct {
	mapCopies int
}

func (d *directed) Name() string { return "directed" }

func (d *directed) Schedule(ctx sched.Context) []sched.Placement {
	ft := sched.NewFitTracker(ctx.Cluster())
	var out []sched.Placement
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			if pt.Ref.Phase == 0 {
				// Map: d.mapCopies copies, all on fast servers (0, 1).
				for c := 0; c < d.mapCopies; c++ {
					srv := cluster.ServerID(c % 2)
					if !ft.Place(srv, pt.Demand) {
						break
					}
					out = append(out, sched.Placement{Ref: pt.Ref, Server: srv})
				}
				continue
			}
			// Reduce: original on the slow server 2, clone on fast 0.
			if ft.Place(2, pt.Demand) {
				out = append(out, sched.Placement{Ref: pt.Ref, Server: 2})
			}
			if ft.Place(0, pt.Demand) {
				out = append(out, sched.Placement{Ref: pt.Ref, Server: 0})
			}
		}
	}
	return out
}

func delayFleet(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New([]cluster.Spec{
		{Name: "fast-0", Capacity: resources.Cores(4, 8), Speed: 1},
		{Name: "fast-1", Capacity: resources.Cores(4, 8), Speed: 1},
		{Name: "slow", Capacity: resources.Cores(4, 8), Speed: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func delayJob() *workload.Job {
	return workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "map", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
		{Name: "reduce", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
	})
}

func runDelay(t *testing.T, mapCopies int, delay bool) int64 {
	t.Helper()
	e, cert, err := verify.New(Config{
		Cluster:         delayFleet(t),
		Jobs:            []*workload.Job{delayJob()},
		Scheduler:       &directed{mapCopies: mapCopies},
		Seed:            1,
		Deterministic:   true,
		TransferPenalty: 3,
		DelayAssignment: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err == nil {
		err = cert.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// Timeline: map finishes at 4 on a fast server. The reduce original
// lands on the slow server (4/0.25 = 16 slots → done at 20); its clone
// on a fast server takes 4 slots plus any transfer penalty, and wins.

func TestDownstreamCloneSharesOutputWithoutDelayAssignment(t *testing.T) {
	// No coordination: the reduce clone fetches the shared map output
	// remotely (+3) → reduce completes at 4 + 7 = 11.
	if got := runDelay(t, 1, false); got != 11 {
		t.Fatalf("makespan: %d, want 11", got)
	}
}

func TestDelayAssignmentNeedsUpstreamClones(t *testing.T) {
	// Coordination on, but the map ran a single copy: there is only one
	// output, the clone still shares it → 11.
	if got := runDelay(t, 1, true); got != 11 {
		t.Fatalf("makespan: %d, want 11", got)
	}
}

func TestDelayAssignmentAvoidsContentionWithUpstreamClones(t *testing.T) {
	// Map ran two copies: delay assignment hands each reduce copy its
	// own output → the clone pays nothing and the reduce completes at
	// 4 + 4 = 8.
	if got := runDelay(t, 2, true); got != 8 {
		t.Fatalf("makespan: %d, want 8", got)
	}
	// Without coordination the second output is wasted → back to 11.
	if got := runDelay(t, 2, false); got != 11 {
		t.Fatalf("uncoordinated makespan: %d, want 11", got)
	}
}
