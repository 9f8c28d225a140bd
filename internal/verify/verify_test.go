package verify

import (
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
	"dollymp/internal/yarn"
)

func TestCertifyDollyMPRun(t *testing.T) {
	jobs := trace.MixedDeployment(16, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 6}, 3)
	fleet := cluster.Testbed30()
	done := make(map[workload.JobID]int64)
	e, err := sim.New(sim.Config{
		Cluster: fleet, Jobs: jobs, Scheduler: core.MustNew(), Seed: 7, RecordTrace: true,
		Observe: func(o *sim.Observation) {
			if o.Kind == sim.TraceJobDone {
				done[o.Ref.Job] = o.Slot
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if err := Check(res.Trace, cluster.Testbed30(), jobs); err != nil {
		t.Fatalf("certification failed: %v", err)
	}
	// Eq. (8): a job finishes in the slot of its last task's completion.
	// The trace, the job's TraceJobDone and its metrics must agree.
	last := make(map[workload.JobID]int64)
	for _, ev := range res.Trace {
		if ev.Kind == sim.TraceComplete && ev.Slot > last[ev.Ref.Job] {
			last[ev.Ref.Job] = ev.Slot
		}
	}
	for _, jm := range res.Jobs {
		if last[jm.ID] != jm.Finish || done[jm.ID] != jm.Finish {
			t.Fatalf("job %d: trace completion %d, TraceJobDone at %d, metric %d", jm.ID, last[jm.ID], done[jm.ID], jm.Finish)
		}
	}
}

func TestCertifyYARNWithFailures(t *testing.T) {
	jobs := trace.MixedDeployment(12, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 6}, 5)
	e, err := sim.New(sim.Config{
		Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: yarn.New(), Seed: 9,
		RecordTrace:     true,
		TransferPenalty: 2,
		DelayAssignment: true,
		Events: []sim.Event{
			{At: 10, Server: 4, Kind: sim.EventFail},
			{At: 40, Server: 4, Kind: sim.EventRestore},
			{At: 15, Server: 7, Kind: sim.EventSlowdown, Factor: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res.Trace, cluster.Testbed30(), jobs); err != nil {
		t.Fatalf("certification failed: %v", err)
	}
}

func TestCertifyCapacityRun(t *testing.T) {
	jobs := trace.MixedDeployment(10, trace.Arrival{Kind: trace.FixedInterval, MeanGap: 5}, 11)
	e, err := sim.New(sim.Config{
		Cluster: cluster.Testbed30(), Jobs: jobs, Scheduler: capacity.Default(), Seed: 13,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res.Trace, cluster.Testbed30(), jobs); err != nil {
		t.Fatalf("certification failed: %v", err)
	}
}

func simpleJob() *workload.Job {
	return workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "a", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
		{Name: "b", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 4},
	})
}

func TestCheckRejectsBadTraces(t *testing.T) {
	fleet := cluster.Uniform(1, resources.Cores(2, 4))
	jobs := []*workload.Job{simpleJob()}
	d := resources.Cores(1, 1)
	a := workload.TaskRef{Job: 1, Phase: 0, Index: 0}
	b := workload.TaskRef{Job: 1, Phase: 1, Index: 0}
	good := []sim.TraceEvent{
		{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: d},
		{Slot: 4, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: d},
		{Slot: 4, Kind: sim.TracePlace, Ref: b, Server: 0, Demand: d},
		{Slot: 8, Kind: sim.TraceComplete, Ref: b, Server: 0, Demand: d},
	}
	if err := Check(good, fleet, jobs); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	cases := []struct {
		name  string
		trace []sim.TraceEvent
		want  string
	}{
		{"precedence violation", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: b, Server: 0, Demand: d},
		}, "before parent"},
		{"over capacity", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: resources.Cores(3, 1)},
		}, "over capacity"},
		{"negative phase", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: workload.TaskRef{Job: 1, Phase: -1}, Server: 0, Demand: d},
		}, "out-of-range task"},
		{"negative index", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: workload.TaskRef{Job: 1, Phase: 0, Index: -1}, Server: 0, Demand: d},
		}, "out-of-range task"},
		{"demand differs from its phase", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: resources.Vector{}},
			{Slot: 4, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: resources.Vector{}},
			{Slot: 4, Kind: sim.TracePlace, Ref: b, Server: 0, Demand: resources.Vector{}},
			{Slot: 8, Kind: sim.TraceComplete, Ref: b, Server: 0, Demand: resources.Vector{}},
		}, "its phase demands"},
		{"double completion", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: d},
			{Slot: 2, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: d},
			{Slot: 4, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: d},
			{Slot: 5, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: d},
		}, "completed twice"},
		{"completion without copy", []sim.TraceEvent{
			{Slot: 4, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: d},
		}, "no live copy"},
		{"unknown job", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: workload.TaskRef{Job: 9}, Server: 0, Demand: d},
		}, "unknown job"},
		{"unknown server", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 7, Demand: d},
		}, "unknown server"},
		{"server at fleet length", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 1, Demand: d},
		}, "unknown server"},
		{"negative server", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: -1, Demand: d},
		}, "unknown server"},
		{"incomplete run", good[:2], "never completed"},
		{"leftover copy", []sim.TraceEvent{
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: d},
			{Slot: 0, Kind: sim.TracePlace, Ref: a, Server: 0, Demand: d},
			{Slot: 4, Kind: sim.TraceComplete, Ref: a, Server: 0, Demand: d},
			{Slot: 4, Kind: sim.TracePlace, Ref: b, Server: 0, Demand: d},
			{Slot: 8, Kind: sim.TraceComplete, Ref: b, Server: 0, Demand: d},
		}, "copies running"},
	}
	for _, c := range cases {
		err := Check(c.trace, fleet, jobs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want contains %q", c.name, err, c.want)
		}
	}
}
