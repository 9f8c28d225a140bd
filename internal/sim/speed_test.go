package sim_test

import (
	"fmt"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// twoRackUniform builds n uniform-speed servers split across two racks,
// so cross-rack placements (and transfer penalties) must occur.
func twoRackUniform(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	specs := make([]cluster.Spec, n)
	for i := range specs {
		specs[i] = cluster.Spec{
			Name:     fmt.Sprintf("u-%d", i),
			Capacity: resources.Cores(2, 4),
			Speed:    1,
			Rack:     i % 2,
		}
	}
	c, err := cluster.New(specs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSpeedEstimateUnbiasedByTransferPenalty pins the EWMA bias fix: on
// a uniform-speed fleet, transfer-penalty slots must not leak into the
// per-server speed estimate. Before the fix a cross-rack copy of mean
// duration 10 with penalty 40 observed speed 10/50 = 0.2 and dragged a
// healthy server's estimate far below 1.
func TestSpeedEstimateUnbiasedByTransferPenalty(t *testing.T) {
	const penalty = 40
	jobs := make([]*workload.Job, 24)
	for i := range jobs {
		jobs[i] = workload.SingleTask(workload.JobID(i), int64(i*3),
			resources.Cores(1, 1), 10, 0)
	}
	runWith := func(p int64) (*Engine, *Result) {
		t.Helper()
		e, cert, err := verify.New(Config{
			Cluster:         twoRackUniform(t, 6),
			Jobs:            jobs,
			Scheduler:       Greedy{},
			Seed:            7,
			Deterministic:   true,
			TransferPenalty: p,
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
		return e, res
	}

	penalized, resP := runWith(penalty)
	_, resFree := runWith(0)
	// The penalty run must actually have paid penalties, or this test
	// certifies nothing.
	if resP.TotalFlowtime() <= resFree.TotalFlowtime() {
		t.Fatalf("no transfer penalties occurred: flowtime %d vs %d",
			resP.TotalFlowtime(), resFree.TotalFlowtime())
	}

	observed := 0
	for id := 0; id < 6; id++ {
		v, n := penalized.ObservedServerSpeed(cluster.ServerID(id))
		if n == 0 {
			continue
		}
		observed++
		// Deterministic mean-10 tasks on speed-1 servers: every compute
		// duration is exactly 10 slots, so the estimate is exactly 1.
		if v < 0.99 || v > 1.01 {
			t.Errorf("server %d: speed estimate %.3f after %d samples, want ~1.0", id, v, n)
		}
	}
	if observed == 0 {
		t.Fatal("no server accumulated speed observations")
	}
}

// TestTransferPenaltyStillDelaysCompletion guards the other half of the
// fix: the penalty still extends the copy's finish time, it is only
// excluded from speed attribution.
func TestTransferPenaltyStillDelaysCompletion(t *testing.T) {
	jobs := []*workload.Job{workload.SingleTask(1, 0, resources.Cores(1, 1), 10, 0)}
	run := func(p int64) int64 {
		t.Helper()
		e, err := New(Config{
			Cluster:         twoRackUniform(t, 2),
			Jobs:            jobs,
			Scheduler:       Greedy{},
			Seed:            1,
			Deterministic:   true,
			TransferPenalty: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	base := run(0)
	delayed := run(25)
	if delayed != base && delayed != base+25 {
		t.Fatalf("makespan with penalty: %d, want %d or %d", delayed, base, base+25)
	}
	// greedy places job 1's single task on server 0 (rack 0); whether it
	// pays depends on the hashed input rack, but the engine must never
	// shorten the run.
	if delayed < base {
		t.Fatalf("penalty shortened the run: %d < %d", delayed, base)
	}
}
