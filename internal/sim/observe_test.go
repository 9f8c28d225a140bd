package sim_test

import (
	"testing"

	"dollymp/internal/resources"
	"dollymp/internal/sched"
	. "dollymp/internal/sim"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// timelinePoint is the cluster state an observer reads off the engine at
// a TraceAdvance: the state that held from Slot until the next point's.
type timelinePoint struct {
	Slot                           int64
	ActiveJobs, RunningCopies      int
	UtilizationCPU, UtilizationMem float64
}

// liveCopyCount sums LiveCopies over every task of every active job.
func liveCopyCount(e *Engine) int {
	n := 0
	for _, js := range e.Jobs() {
		for k := range js.Job.Phases {
			for l := 0; l < js.Job.Phases[k].Tasks; l++ {
				n += js.LiveCopies(workload.PhaseID(k), l)
			}
		}
	}
	return n
}

// runTimeline runs cfg to the end with an observer that samples the
// engine at every clock advance.
func runTimeline(t *testing.T, cfg Config) (*Result, []timelinePoint) {
	t.Helper()
	var e *Engine
	var tl []timelinePoint
	cfg.Observe = func(o *Observation) {
		if o.Kind != TraceAdvance {
			return
		}
		used, total := e.Cluster().TotalUsed(), e.Cluster().Total()
		tl = append(tl, timelinePoint{
			Slot: o.Slot, ActiveJobs: len(e.Jobs()), RunningCopies: liveCopyCount(e),
			UtilizationCPU: float64(used.CPUMilli) / float64(total.CPUMilli),
			UtilizationMem: float64(used.MemMiB) / float64(total.MemMiB),
		})
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, tl
}

// TestObserverAdvanceMatchesStream runs the failure scenario with an
// observer that keeps the active jobs (arrive − done), the running copies
// (place − complete − kill − lost) and the resources they hold from the
// events alone, and at every TraceAdvance requires the engine to say the
// same: len(Jobs()), the summed LiveCopies, and Cluster().TotalUsed(),
// which also counts a failed server's capacity as in use. It also holds
// the stream to its shape: each job arrives, starts and finishes once,
// a start comes right before that job's first placement and a finish
// right after its last completion, slots never go back, and an advance
// leaves the slot every event since the previous one carried.
func TestObserverAdvanceMatchesStream(t *testing.T) {
	for _, s := range []sched.Scheduler{Cloner{}, Greedy{}} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := failureScenario(s)
			var e *Engine
			var prev Observation
			active, running, advances, failedSeen := 0, 0, 0, 0
			var used resources.Vector
			seen := make(map[workload.JobID][3]int) // arrive, start, done
			cfg.Observe = func(o *Observation) {
				if o.Slot < prev.Slot {
					t.Fatalf("%v at slot %d after slot %d", o.Kind, o.Slot, prev.Slot)
				}
				if prev.Kind == TraceJobStart && (o.Kind != TracePlace || o.Ref.Job != prev.Ref.Job) {
					t.Fatalf("job %d started, then %v for %v", prev.Ref.Job, o.Kind, o.Ref)
				}
				if o.Kind == TraceJobDone && (prev.Kind != TraceComplete || prev.Ref.Job != o.Ref.Job || o.Job == nil || o.Job.ID != o.Ref.Job) {
					t.Fatalf("job %d done after %v for %v (metrics %+v)", o.Ref.Job, prev.Kind, prev.Ref, o.Job)
				}
				if o.Kind != TraceJobDone && o.Job != nil {
					t.Fatalf("%v carries job metrics", o.Kind)
				}
				n := seen[o.Ref.Job]
				switch o.Kind {
				case TraceArrive:
					active++
					n[0]++
				case TraceJobStart:
					n[1]++
				case TraceJobDone:
					active--
					n[2]++
				case TracePlace:
					running++
					used = used.Add(o.Demand)
				case TraceComplete, TraceKill, TraceLost:
					running--
					used = used.Sub(o.Demand)
				case TraceAdvance:
					if o.Slot != e.Now() || (prev.Kind != TraceAdvance && prev.Slot != o.Slot) {
						t.Fatalf("advance reports slot %d; the clock reads %d, the last %v carried %d", o.Slot, e.Now(), prev.Kind, prev.Slot)
					}
					advances++
					want := used
					for _, srv := range e.Cluster().Servers() {
						if srv.Failed() {
							want = want.Add(srv.Capacity)
							failedSeen++
						}
					}
					if got := len(e.Jobs()); got != active {
						t.Fatalf("slot %d: %d active jobs, the stream says %d", o.Slot, got, active)
					}
					if got := liveCopyCount(e); got != running {
						t.Fatalf("slot %d: %d live copies, the stream says %d", o.Slot, got, running)
					}
					if got := e.Cluster().TotalUsed(); got != want {
						t.Fatalf("slot %d: %v in use, the stream says %v", o.Slot, got, want)
					}
				}
				if o.Kind >= TraceArrive && o.Kind <= TraceJobDone {
					seen[o.Ref.Job] = n
				}
				prev = *o
			}
			e, cert, err := verify.New(cfg)
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
			if active != 0 || running != 0 || !used.IsZero() {
				t.Fatalf("after the run the stream holds %d jobs, %d copies, %v", active, running, used)
			}
			if len(seen) != len(cfg.Jobs) || res.CopiesLostToFailures == 0 || advances == 0 || failedSeen == 0 {
				t.Fatalf("%d of %d jobs seen, %d copies lost, %d advances, %d with a failed server", len(seen), len(cfg.Jobs), res.CopiesLostToFailures, advances, failedSeen)
			}
			for id, n := range seen {
				if n != [3]int{1, 1, 1} {
					t.Fatalf("job %d: %d arrivals, %d starts, %d finishes", id, n[0], n[1], n[2])
				}
			}
		})
	}
}
