package sim_test

import (
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

func TestEventValidation(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(1, 1))
	j := SingleTaskJob(1, 0, 5)
	mk := func(ev Event) error {
		_, err := New(Config{Cluster: c, Jobs: []*workload.Job{j}, Scheduler: Greedy{},
			Deterministic: true, Events: []Event{ev}})
		return err
	}
	if err := mk(Event{At: -1, Server: 0, Kind: EventFail}); err == nil {
		t.Error("negative slot accepted")
	}
	if err := mk(Event{At: 0, Server: 9, Kind: EventFail}); err == nil {
		t.Error("unknown server accepted")
	}
	if err := mk(Event{At: 0, Server: 2, Kind: EventFail}); err == nil {
		t.Error("server at fleet length accepted")
	}
	if err := mk(Event{At: 0, Server: 0, Kind: EventSlowdown, Factor: 0}); err == nil {
		t.Error("zero factor accepted")
	}
	if err := mk(Event{At: 0, Server: 0, Kind: EventSlowdown, Factor: 2}); err == nil {
		t.Error("factor > 1 accepted")
	}
	if err := mk(Event{At: 0, Server: 0, Kind: EventKind(42)}); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := mk(Event{At: 0, Server: 0, Kind: EventSlowdown, Factor: 0.5}); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
}

func TestSlowdownAffectsLaterPlacements(t *testing.T) {
	// Two sequential jobs on one server; the slowdown lands between
	// them, so job 1 runs at full speed and job 2 at half.
	c := cluster.Uniform(1, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 10), SingleTaskJob(2, 10, 10)}
	e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{{At: 5, Server: 0, Kind: EventSlowdown, Factor: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	by := res.ByJobID()
	if by[1].Finish != 10 {
		t.Fatalf("job1 (placed before slowdown): %+v", by[1])
	}
	if by[2].Finish != 30 { // 10 slots of work at half speed = 20
		t.Fatalf("job2 (placed after slowdown): %+v", by[2])
	}
}

func TestRecoverRestoresSpeed(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 10, 10)}
	e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{
			{At: 0, Server: 0, Kind: EventSlowdown, Factor: 0.5},
			{At: 5, Server: 0, Kind: EventRecover},
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Flowtime != 10 {
		t.Fatalf("recovered server should run at full speed: %+v", res.Jobs[0])
	}
}

func TestFailKillsLastCopyAndReschedules(t *testing.T) {
	// One job running on server 0; server 0 fails mid-run; the task
	// must restart on server 1.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 10)}
	e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{{At: 4, Server: 0, Kind: EventFail}}})
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
	j := res.Jobs[0]
	// Restarted at slot 4, finishes at 14; two copies launched overall.
	if j.Finish != 14 || j.CopiesLaunched != 2 {
		t.Fatalf("restart: %+v", j)
	}
	if res.CopiesLostToFailures != 1 {
		t.Fatalf("lost copies: %d", res.CopiesLostToFailures)
	}
}

func TestCloneSurvivesFailure(t *testing.T) {
	// With a clone on the other server, the failure costs nothing: the
	// surviving copy finishes on time — cloning as fault tolerance.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 10)}
	e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Cloner{}, Deterministic: true,
		Events: []Event{{At: 4, Server: 0, Kind: EventFail}}})
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
	if res.Jobs[0].Finish != 10 {
		t.Fatalf("surviving clone should finish on time: %+v", res.Jobs[0])
	}
	if res.CopiesLostToFailures != 1 {
		t.Fatalf("lost copies: %d", res.CopiesLostToFailures)
	}
}

func TestFailedServerRejectsPlacements(t *testing.T) {
	// Server 0 fails before the job arrives; everything must run on
	// server 1.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 5, 10)}
	e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{{At: 0, Server: 0, Kind: EventFail}}})
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
	if res.Jobs[0].Finish != 15 {
		t.Fatalf("job should run on the surviving server: %+v", res.Jobs[0])
	}
}

func TestRestoreUnblocksCluster(t *testing.T) {
	// The only server fails, then restores; the waiting job runs after
	// the restore rather than deadlocking the simulation.
	c := cluster.Uniform(1, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 5)}
	e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{
			{At: 0, Server: 0, Kind: EventFail},
			{At: 20, Server: 0, Kind: EventRestore},
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].FirstStart != 20 || res.Jobs[0].Finish != 25 {
		t.Fatalf("restore should unblock: %+v", res.Jobs[0])
	}
}

func TestPermanentFailureIsStuck(t *testing.T) {
	c := cluster.Uniform(1, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 5)}
	e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{{At: 0, Server: 0, Kind: EventFail}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("want stuck error, got %v", err)
	}
}

func TestDoubleFailIsIdempotent(t *testing.T) {
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 10)}
	e, cert, err := verify.New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{
			{At: 2, Server: 0, Kind: EventFail},
			{At: 3, Server: 0, Kind: EventFail},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cert.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureUsageStillCharged(t *testing.T) {
	// The killed copy's partial runtime is charged to the job.
	c := cluster.Uniform(2, resources.Cores(1, 1))
	jobs := []*workload.Job{SingleTaskJob(1, 0, 10)}
	e, err := New(Config{Cluster: c, Jobs: jobs, Scheduler: Greedy{}, Deterministic: true,
		Events: []Event{{At: 4, Server: 0, Kind: EventFail}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 4 slots lost + 10 slots on the new server = 14 core-slots.
	if got := res.Jobs[0].Usage.CPUMilliSlots; got != 14*1000 {
		t.Fatalf("usage: %d", got)
	}
}
