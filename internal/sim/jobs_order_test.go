package sim

import (
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/workload"
)

// snapshotChecker wraps a scheduler and checks, at every decision
// point, the sched.Context.Jobs contract against the previous snapshot:
// the finished jobs are gone, the survivors keep their relative order,
// and whatever is new sits behind all of them.
type snapshotChecker struct {
	sched.Scheduler
	t     *testing.T
	prev  []*workload.JobState
	calls int
	grew  int // snapshots that gained a job
	shed  int // snapshots that lost one
}

func (c *snapshotChecker) Schedule(ctx sched.Context) []sched.Placement {
	jobs := ctx.Jobs()
	c.calls++
	i := 0
	for _, js := range c.prev {
		switch {
		case i < len(jobs) && jobs[i] == js:
			i++
		case !js.Done():
			c.t.Fatalf("call %d, slot %d: unfinished job %d lost its place at position %d of Jobs()",
				c.calls, ctx.Now(), js.Job.ID, i)
		}
	}
	if i < len(c.prev) {
		c.shed++
	}
	if i < len(jobs) {
		c.grew++
	}
	seen := make(map[*workload.JobState]bool, len(c.prev))
	for _, js := range c.prev {
		seen[js] = true
	}
	for _, js := range jobs[i:] {
		if seen[js] {
			c.t.Fatalf("call %d, slot %d: job %d moved behind newer jobs", c.calls, ctx.Now(), js.Job.ID)
		}
	}
	c.prev = append(c.prev[:0], jobs...)
	return c.Scheduler.Schedule(ctx)
}

// TestJobsSnapshotsOnlyAppendAndCut drives an online engine through
// interleaved injections — in ID order, out of ID order into a slot
// already delivered, and mid-run — completions, and a server failure
// that reverts running tasks to pending, and checks the Jobs() contract
// at every Schedule call. Schedulers that keep per-job state between
// calls (core.Scheduler) rely on it.
func TestJobsSnapshotsOnlyAppendAndCut(t *testing.T) {
	chk := &snapshotChecker{Scheduler: greedy{}, t: t}
	e, err := New(Config{
		Cluster: cluster.Uniform(2, resources.Cores(2, 2)), Scheduler: chk,
		Deterministic: true, Online: true, Paranoid: true,
		Events: []Event{{At: 2, Server: 0, Kind: EventFail}, {At: 6, Server: 0, Kind: EventRestore}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inject := func(id workload.JobID, arrival int64, mean float64) {
		t.Helper()
		if _, err := e.InjectJob(singleTaskJob(id, arrival, mean)); err != nil {
			t.Fatal(err)
		}
	}
	step := func() bool {
		t.Helper()
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		return idle
	}
	// Six single-task jobs on four cores: two wait.
	for id := workload.JobID(10); id <= 60; id += 10 {
		inject(id, 0, float64(3+id/10))
	}
	step()
	inject(5, 0, 4)  // smaller ID into slot 0, already delivered
	inject(70, 3, 2) // a later slot
	inject(7, 3, 2)  // same slot, smaller ID, not yet delivered: sorts first
	for n := 0; !step(); n++ {
		if n == 3 {
			inject(1, 0, 1) // clamped to the clock, behind everything active
		}
	}
	if got := e.res.Completed; got != 10 {
		t.Fatalf("completed %d of 10", got)
	}
	if chk.grew < 3 || chk.shed < 3 {
		t.Fatalf("the run did not exercise the contract: %d snapshots grew, %d shed jobs", chk.grew, chk.shed)
	}
}
