package sim_test

import (
	"math/rand"
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// compactTestJobs builds a stochastic two-phase workload, the same
// shape the online/batch equivalence property uses.
func compactTestJobs(seed int64, n int) []*workload.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*workload.Job, n)
	arrival := int64(0)
	for i := range jobs {
		arrival += 1 + int64(rng.Intn(4))
		phases := []workload.Phase{{
			Name: "map", Tasks: 1 + rng.Intn(4),
			Demand:       resources.Cores(1+int64(rng.Intn(2)), 1+int64(rng.Intn(3))),
			MeanDuration: 2 + 4*rng.Float64(), SDDuration: 1 + rng.Float64(),
		}}
		if rng.Intn(2) == 0 {
			phases = append(phases, workload.Phase{
				Name: "reduce", Tasks: 1 + rng.Intn(2),
				Demand:       resources.Cores(1, 1+int64(rng.Intn(2))),
				MeanDuration: 1 + 3*rng.Float64(), SDDuration: 0.5,
				Parents: []workload.PhaseID{0},
			})
		}
		jobs[i] = &workload.Job{
			ID: workload.JobID(i + 1), Name: "compact", App: "equiv",
			Arrival: arrival, Phases: phases,
		}
	}
	return jobs
}

// TestCompactJobsEquivalence runs the same workload with and without
// CompactJobs: the digest's aggregates must match the per-job records
// exactly, and Jobs must stay empty under compaction.
func TestCompactJobsEquivalence(t *testing.T) {
	const seed = 4
	run := func(compact bool) *Result {
		eng, cert, err := verify.New(Config{
			Cluster: cluster.LargeFleet(12, seed), Jobs: compactTestJobs(seed, 80),
			Scheduler: Cloner{}, Seed: seed, CompactJobs: compact,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err == nil {
			err = cert.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, compact := run(false), run(true)

	if len(compact.Jobs) != 0 {
		t.Fatalf("compact run retained %d JobMetrics records", len(compact.Jobs))
	}
	if compact.Digest == nil {
		t.Fatal("compact run has no digest")
	}
	if full.Digest != nil {
		t.Fatal("full run grew a digest")
	}
	if compact.Completed != full.Completed || full.Completed != len(full.Jobs) {
		t.Fatalf("completed: compact %d, full %d (len %d)", compact.Completed, full.Completed, len(full.Jobs))
	}
	if compact.Makespan != full.Makespan {
		t.Fatalf("makespan: compact %d, full %d", compact.Makespan, full.Makespan)
	}
	if compact.TotalUsage != full.TotalUsage {
		t.Fatalf("total usage: compact %+v, full %+v", compact.TotalUsage, full.TotalUsage)
	}
	if compact.AvgUtilization != full.AvgUtilization {
		t.Fatalf("utilization: compact %v, full %v", compact.AvgUtilization, full.AvgUtilization)
	}
	if got, want := compact.TotalFlowtime(), full.TotalFlowtime(); got != want {
		t.Fatalf("total flowtime: compact %d, full %d", got, want)
	}
	if got, want := compact.MeanFlowtime(), full.MeanFlowtime(); got != want {
		t.Fatalf("mean flowtime: compact %v, full %v", got, want)
	}
	if got, want := compact.ClonedTaskFraction(), full.ClonedTaskFraction(); got != want {
		t.Fatalf("cloned fraction: compact %v, full %v", got, want)
	}

	// Cross-check every digest aggregate against the per-job records.
	d := compact.Digest
	var flowMin, flowMax, copies, cloned, tasks int64
	flowMin = 1 << 62
	for _, j := range full.Jobs {
		if j.Flowtime < flowMin {
			flowMin = j.Flowtime
		}
		if j.Flowtime > flowMax {
			flowMax = j.Flowtime
		}
		copies += int64(j.CopiesLaunched)
		cloned += int64(j.TasksCloned)
		tasks += int64(j.TotalTasks)
	}
	if d.Flowtime.Count() != int64(full.Completed) || d.Flowtime.Min() != flowMin || d.Flowtime.Max() != flowMax {
		t.Fatalf("flowtime digest n=%d min=%d max=%d, want n=%d min=%d max=%d",
			d.Flowtime.Count(), d.Flowtime.Min(), d.Flowtime.Max(), full.Completed, flowMin, flowMax)
	}
	if d.CopiesLaunched != copies || d.TasksCloned != cloned || d.TotalTasks != tasks {
		t.Fatalf("digest counts %d/%d/%d, want %d/%d/%d",
			d.CopiesLaunched, d.TasksCloned, d.TotalTasks, copies, cloned, tasks)
	}
	// Quantile bounds hold for the real per-job distribution.
	for _, q := range []float64{0.5, 0.95, 1} {
		bound := d.Flowtime.Quantile(q)
		over := 0
		for _, j := range full.Jobs {
			if j.Flowtime > bound {
				over++
			}
		}
		if frac := float64(over) / float64(len(full.Jobs)); frac > 1-q+1e-9 {
			t.Errorf("q=%v bound %d exceeded by %.3f of jobs", q, bound, frac)
		}
	}
}

// TestFinalizeIdempotent pins the repeated-Finalize contract an online
// caller relies on: the service snapshots Result mid-run and again at
// drain, so calling Finalize after every step — and several times at
// the end — must neither double-fold the utilization aggregates nor
// perturb the final result away from a batch run's single Finalize.
func TestFinalizeIdempotent(t *testing.T) {
	const seed = 6
	jobs := compactTestJobs(seed, 40)

	batchEng, err := New(Config{
		Cluster: cluster.LargeFleet(12, seed), Jobs: compactTestJobs(seed, 40),
		Scheduler: Cloner{}, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchEng.Run()
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(Config{
		Cluster: cluster.LargeFleet(12, seed), Scheduler: Cloner{},
		Seed: seed, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	inject := func() {
		for idx < len(jobs) && (idx == 0 || jobs[idx-1].Arrival <= e.Clock()) {
			if _, err := e.InjectJob(jobs[idx]); err != nil {
				t.Fatal(err)
			}
			idx++
		}
	}
	inject()
	for {
		// A mid-run Finalize must be a pure snapshot: stepping onward
		// after it continues the run unchanged.
		e.Finalize()
		e.Finalize()
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		inject()
		if idle && idx >= len(jobs) {
			break
		}
	}
	first := *e.Finalize()
	for i := 0; i < 3; i++ {
		again := e.Finalize()
		if again.AvgUtilization != first.AvgUtilization {
			t.Fatalf("Finalize call %d drifted utilization: %v -> %v", i+2, first.AvgUtilization, again.AvgUtilization)
		}
		if again.Makespan != first.Makespan || again.TotalUsage != first.TotalUsage || again.Completed != first.Completed {
			t.Fatalf("Finalize call %d drifted aggregates", i+2)
		}
	}
	if first.AvgUtilization != batch.AvgUtilization {
		t.Fatalf("utilization after repeated Finalize %v, batch single-Finalize %v", first.AvgUtilization, batch.AvgUtilization)
	}
	if first.Makespan != batch.Makespan || first.TotalUsage != batch.TotalUsage {
		t.Fatal("repeated mid-run Finalize perturbed the run")
	}
}

// TestCompletedIDRejection: after a job completes and its state is
// released, both re-injection and late placements are still rejected
// with the completed-job wording, backed by the done bitmap rather than
// map tombstones.
func TestCompletedIDRejection(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(4, 8)), Scheduler: Greedy{},
		Seed: 1, Deterministic: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InjectJob(SingleTaskJob(7, 0, 2)); err != nil {
		t.Fatal(err)
	}
	for {
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if idle {
			break
		}
	}
	if e.CompletedJobs() != 1 {
		t.Fatalf("completed %d, want 1", e.CompletedJobs())
	}
	if _, err := e.InjectJob(SingleTaskJob(7, 0, 2)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("re-use of a completed ID must be rejected as duplicate, got %v", err)
	}
	place := func(id workload.JobID) error {
		return e.ApplyPlacement(sched.Placement{Ref: workload.TaskRef{Job: id}})
	}
	if err := place(7); err == nil || !strings.Contains(err.Error(), "completed job") {
		t.Fatalf("placement for a completed job must say so, got %v", err)
	}
	if err := place(99); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("placement for a never-seen job must say unknown, got %v", err)
	}
}

// TestIDSet unit-tests the paged bitmap, including sparse and negative
// IDs and page-boundary neighbors.
func TestIDSet(t *testing.T) {
	var s IDSet
	ids := []workload.JobID{0, 1, 63, 64, 4095, 4096, 4097, 1 << 20, -1, -4096}
	for _, id := range ids {
		if s.Has(id) {
			t.Fatalf("fresh set claims %d", id)
		}
		s.Add(id)
		if !s.Has(id) {
			t.Fatalf("added %d not found", id)
		}
	}
	if s.Len() != int64(len(ids)) {
		t.Fatalf("len %d, want %d", s.Len(), len(ids))
	}
	s.Add(4096) // duplicate add is a no-op
	if s.Len() != int64(len(ids)) {
		t.Fatal("duplicate add changed length")
	}
	for _, absent := range []workload.JobID{2, 62, 65, 4094, 4098, -2, 1<<20 + 1} {
		if s.Has(absent) {
			t.Fatalf("set claims never-added %d", absent)
		}
	}
}
