package core_test

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
)

// departedChecked checks after every Schedule call that no record of a
// job that has left ctx.Jobs() still holds the job, and keeps the most
// such records one call left behind.
type departedChecked struct {
	*core.Scheduler
	t    *testing.T
	most int
}

func (d *departedChecked) Schedule(ctx sched.Context) []sched.Placement {
	out := d.Scheduler.Schedule(ctx)
	departed, holding := core.DepartedOf(d.Scheduler)
	if holding > 0 {
		d.t.Fatalf("slot %d: %d of %d departed records still hold their job", ctx.Now(), holding, departed)
	}
	d.most = max(d.most, departed)
	return out
}

// TestDepartedRecordsReleaseJobs: a watch pass drops the records of
// finished jobs and leaves them for the next full walk to recycle,
// which may be many calls away. Until then a record that still held its
// job would keep the finished job reachable. Arrivals are paced so that
// most calls see none and take the watch pass.
func TestDepartedRecordsReleaseJobs(t *testing.T) {
	jobs := trace.DefaultGoogleLike(600, 1.0, 3).Generate()
	for i, j := range jobs {
		j.Arrival = int64(i / 4)
	}
	d := &departedChecked{Scheduler: core.MustNew(core.WithClones(2)), t: t}
	e, err := sim.New(sim.Config{Cluster: cluster.LargeFleet(40, 1), Jobs: jobs, Scheduler: d, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d jobs", res.Completed, len(jobs))
	}
	if d.most == 0 {
		t.Fatal("no Schedule call left a departed record behind: the drain never dropped a record without a full walk")
	}
	t.Logf("up to %d departed records waited for a full walk", d.most)
}
