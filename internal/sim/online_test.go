package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// TestOnlineMatchesBatch certifies the injection fidelity contract: a
// run that injects each job before its arrival slot is indistinguishable
// from a batch run handed the same workload up front.
func TestOnlineMatchesBatch(t *testing.T) {
	mkJobs := func() []*workload.Job {
		jobs := make([]*workload.Job, 25)
		for i := range jobs {
			jobs[i] = workload.SingleTask(workload.JobID(i+1), int64(i*3),
				resources.Cores(1+int64(i%3), 2), float64(i%5+2), 0)
		}
		return jobs
	}

	batch := runDet(t, cluster.Uniform(3, resources.Cores(4, 8)), mkJobs(), greedy{})

	jobs := mkJobs()
	e, err := New(Config{
		Cluster: cluster.Uniform(3, resources.Cores(4, 8)), Scheduler: greedy{},
		Seed: 1, Deterministic: true, Paranoid: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals are strictly increasing, so after injecting job idx the
	// engine halts at every arrival slot; injecting the next job once the
	// previous one has arrived keeps the injection ahead of the clock.
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
	lastClock := e.Clock()
	for {
		idle, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if e.Clock() < lastClock {
			t.Fatalf("clock moved backwards: %d -> %d", lastClock, e.Clock())
		}
		lastClock = e.Clock()
		inject()
		if idle && idx >= len(jobs) {
			break
		}
	}
	online := e.Finalize()

	if len(online.Jobs) != len(batch.Jobs) {
		t.Fatalf("online completed %d jobs, batch %d", len(online.Jobs), len(batch.Jobs))
	}
	bm := batch.ByJobID()
	for _, j := range online.Jobs {
		b, ok := bm[j.ID]
		if !ok {
			t.Fatalf("job %d missing from batch run", j.ID)
		}
		if j.Flowtime != b.Flowtime || j.Finish != b.Finish || j.FirstStart != b.FirstStart {
			t.Errorf("job %d diverged: online (flow %d, finish %d) vs batch (flow %d, finish %d)",
				j.ID, j.Flowtime, j.Finish, b.Flowtime, b.Finish)
		}
	}
	if online.Makespan != batch.Makespan {
		t.Errorf("makespan: online %d, batch %d", online.Makespan, batch.Makespan)
	}
}

// TestOnlineBatchEquivalenceProperty is the property form of the
// injection-fidelity contract over the heap-backed arrival queue: for
// ≥8 seeds, a random multi-phase workload driven online — each job
// injected just before its arrival slot, and again all of them through
// Drain — must be bit-for-bit identical to a batch run handed the same
// jobs up front. Durations are stochastic (shared engine RNG), the
// scheduler clones aggressively, and Paranoid re-verifies ledger
// invariants after every event, so any divergence in arrival order,
// placement order, or RNG draw sequence between the paths fails the
// test.
func TestOnlineBatchEquivalenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			mkJobs := func() []*workload.Job {
				rng := rand.New(rand.NewSource(int64(seed)))
				jobs := make([]*workload.Job, 60)
				arrival := int64(0)
				for i := range jobs {
					// Strictly increasing arrivals keep "inject just
					// before the arrival slot" well defined.
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
						ID: workload.JobID(i + 1), Name: "prop", App: "equiv",
						Arrival: arrival, Phases: phases,
					}
				}
				return jobs
			}

			fleet := func() *cluster.Cluster { return cluster.LargeFleet(12, seed) }
			batchEng, err := New(Config{
				Cluster: fleet(), Jobs: mkJobs(), Scheduler: cloner{},
				Seed: seed, Paranoid: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := batchEng.Run()
			if err != nil {
				t.Fatal(err)
			}

			jobs := mkJobs()
			e, err := New(Config{
				Cluster: fleet(), Scheduler: cloner{},
				Seed: seed, Paranoid: true, Online: true,
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
				idle, err := e.Step()
				if err != nil {
					t.Fatal(err)
				}
				inject()
				if idle && idx >= len(jobs) {
					break
				}
			}
			byHand := e.Finalize()

			// Drain over the same sorted jobs is the other way to drive
			// the online engine: the whole workload sits inside its
			// lookahead from the first step.
			d, err := New(Config{
				Cluster: fleet(), Scheduler: cloner{},
				Seed: seed, Paranoid: true, Online: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			drained, err := d.Drain(sliceSource(mkJobs()))
			if err != nil {
				t.Fatal(err)
			}

			bm := batch.ByJobID()
			for name, online := range map[string]*Result{"injected by hand": byHand, "Drain": drained} {
				if len(online.Jobs) != len(batch.Jobs) {
					t.Fatalf("%s: online completed %d jobs, batch %d", name, len(online.Jobs), len(batch.Jobs))
				}
				for _, j := range online.Jobs {
					if b, ok := bm[j.ID]; !ok || j != b {
						t.Errorf("%s: job %d diverged:\n online %+v\n  batch %+v", name, j.ID, j, b)
					}
				}
				if online.Makespan != batch.Makespan {
					t.Errorf("%s: makespan: online %d, batch %d", name, online.Makespan, batch.Makespan)
				}
				if online.TotalUsage != batch.TotalUsage {
					t.Errorf("%s: total usage: online %+v, batch %+v", name, online.TotalUsage, batch.TotalUsage)
				}
				if online.SchedCalls != batch.SchedCalls {
					t.Errorf("%s: scheduler calls: online %d, batch %d", name, online.SchedCalls, batch.SchedCalls)
				}
				if online.AvgUtilization != batch.AvgUtilization {
					t.Errorf("%s: utilization: online %v, batch %v", name, online.AvgUtilization, batch.AvgUtilization)
				}
			}
		})
	}
}

// TestOnlineIdleResume injects a second wave after the engine drains.
func TestOnlineIdleResume(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(2, resources.Cores(4, 8)), Scheduler: greedy{},
		Seed: 1, Deterministic: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if idle, err := e.Step(); err != nil || !idle {
		t.Fatalf("empty online engine must be idle, got idle=%v err=%v", idle, err)
	}
	run := func(n int, base workload.JobID) {
		for i := 0; i < n; i++ {
			if _, err := e.InjectJob(singleTaskJob(base+workload.JobID(i), 0, 4)); err != nil {
				t.Fatal(err)
			}
		}
		for {
			idle, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if idle {
				return
			}
		}
	}
	run(5, 1)
	clockAfterWave1 := e.Clock()
	if clockAfterWave1 <= 0 {
		t.Fatal("clock did not advance")
	}
	run(5, 100)
	if e.CompletedJobs() != 10 {
		t.Fatalf("completed %d, want 10", e.CompletedJobs())
	}
	if e.Clock() < clockAfterWave1 {
		t.Fatal("clock moved backwards across waves")
	}
	// The second wave's arrivals were clamped to the resume slot, so
	// their flowtimes must not include the first wave's span.
	res := e.Finalize()
	for _, j := range res.Jobs[5:] {
		if j.Arrival < clockAfterWave1 {
			t.Errorf("job %d arrival %d predates resume slot %d", j.ID, j.Arrival, clockAfterWave1)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	e, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(4, 8)), Scheduler: greedy{},
		Seed: 1, Deterministic: true, Online: true,
		Jobs: []*workload.Job{singleTaskJob(1, 0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InjectJob(singleTaskJob(1, 0, 2)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate ID must be rejected, got %v", err)
	}
	if _, err := e.InjectJob(&workload.Job{ID: 9}); err == nil {
		t.Fatal("invalid job must be rejected")
	}

	batch, err := New(Config{
		Cluster: cluster.Uniform(1, resources.Cores(4, 8)), Scheduler: greedy{},
		Seed: 1, Jobs: []*workload.Job{singleTaskJob(1, 0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.InjectJob(singleTaskJob(2, 0, 2)); err == nil {
		t.Fatal("InjectJob without Config.Online must be rejected")
	}

	if _, err := New(Config{Cluster: cluster.Uniform(1, resources.Cores(4, 8)), Scheduler: greedy{}, Seed: 1}); err == nil {
		t.Fatal("batch engine with no jobs must be rejected")
	}
}

// TestOnlineHooks verifies an online engine reports TraceJobStart and
// TraceJobDone exactly once per job with coherent slots.
func TestOnlineHooks(t *testing.T) {
	starts := map[workload.JobID]int64{}
	completes := map[workload.JobID]JobMetrics{}
	cfg := Config{
		Cluster: cluster.Uniform(2, resources.Cores(4, 8)), Scheduler: greedy{},
		Seed: 1, Deterministic: true, Online: true,
		Observe: func(o *Observation) {
			switch o.Kind {
			case TraceJobStart:
				if _, dup := starts[o.Ref.Job]; dup {
					t.Errorf("job %d started twice", o.Ref.Job)
				}
				starts[o.Ref.Job] = o.Slot
			case TraceJobDone:
				if _, dup := completes[o.Ref.Job]; dup {
					t.Errorf("job %d finished twice", o.Ref.Job)
				}
				completes[o.Ref.Job] = *o.Job
			}
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if _, err := e.InjectJob(singleTaskJob(workload.JobID(i), int64(i), 3)); err != nil {
			t.Fatal(err)
		}
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
	if len(starts) != 8 || len(completes) != 8 {
		t.Fatalf("hooks fired %d starts, %d completes; want 8 each", len(starts), len(completes))
	}
	for id, m := range completes {
		if start, ok := starts[id]; !ok || m.FirstStart != start {
			t.Errorf("job %d: hook start %d vs metrics first start %d", id, start, m.FirstStart)
		}
		if m.Flowtime < 0 || m.Finish < m.FirstStart {
			t.Errorf("job %d: incoherent metrics %+v", id, m)
		}
	}
}
