// Package verify certifies a recorded simulation trace against the
// paper's analytical model (§3.1): the per-server capacity constraint
// (Eq. 5), the precedence constraint (Eq. 7), and completion accounting
// (Eqs. 6/8). It is an independent checker — it re-derives cluster
// occupancy from the raw event log rather than trusting the engine's
// ledger — so any engine bookkeeping bug shows up as a certification
// failure.
package verify

import (
	"fmt"
	"slices"
	"sort"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// Check certifies a trace. fleet must be the cluster the run used (only
// capacities and server count are read); jobs the workload.
func Check(trace []sim.TraceEvent, fleet *cluster.Cluster, jobs []*workload.Job) error {
	byID := make(map[workload.JobID]*workload.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}

	// Re-derive per-server occupancy over time and per-task state.
	used := make([]resources.Vector, fleet.Len())
	type taskState struct {
		completed bool
		// on holds the server of each live copy: at most the engine's
		// cap, sched.MaxCopies.
		on []cluster.ServerID
	}
	tasks := make(map[workload.TaskRef]*taskState)
	phaseDone := make(map[workload.JobID]map[workload.PhaseID]int) // completed tasks per phase
	phaseDoneAt := make(map[workload.JobID]map[workload.PhaseID]int64)

	events := append([]sim.TraceEvent(nil), trace...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Slot < events[j].Slot })

	get := func(ref workload.TaskRef) *taskState {
		ts := tasks[ref]
		if ts == nil {
			ts = &taskState{}
			tasks[ref] = ts
		}
		return ts
	}
	// release ends ts's live copy on srv, reporting whether it had one.
	release := func(ts *taskState, srv cluster.ServerID) bool {
		i := slices.Index(ts.on, srv)
		if i >= 0 {
			ts.on = slices.Delete(ts.on, i, i+1)
		}
		return i >= 0
	}

	for _, ev := range events {
		j, ok := byID[ev.Ref.Job]
		if !ok {
			return fmt.Errorf("verify: event for unknown job %d", ev.Ref.Job)
		}
		if ev.Ref.Phase < 0 || int(ev.Ref.Phase) >= len(j.Phases) || ev.Ref.Index < 0 || ev.Ref.Index >= j.Phases[ev.Ref.Phase].Tasks {
			return fmt.Errorf("verify: event for out-of-range task %v", ev.Ref)
		}
		ph := &j.Phases[ev.Ref.Phase]
		if !fleet.Contains(ev.Server) {
			return fmt.Errorf("verify: event on unknown server %d", ev.Server)
		}
		ts := get(ev.Ref)
		switch ev.Kind {
		case sim.TracePlace:
			if ts.completed {
				return fmt.Errorf("verify: placement after completion for %v at slot %d", ev.Ref, ev.Slot)
			}
			if ev.Slot < j.Arrival {
				return fmt.Errorf("verify: %v placed at slot %d before its job arrives at %d", ev.Ref, ev.Slot, j.Arrival)
			}
			// Eq. (7): a task cannot start before every parent phase
			// completed.
			for _, par := range ph.Parents {
				doneTasks := phaseDone[ev.Ref.Job][par]
				if doneTasks < j.Phases[par].Tasks {
					return fmt.Errorf("verify: %v placed at slot %d before parent phase %d finished (%d/%d tasks)",
						ev.Ref, ev.Slot, par, doneTasks, j.Phases[par].Tasks)
				}
				if at := phaseDoneAt[ev.Ref.Job][par]; ev.Slot < at {
					return fmt.Errorf("verify: %v placed at slot %d before parent phase %d completion slot %d",
						ev.Ref, ev.Slot, par, at)
				}
			}
			// Eq. (5): capacity. Charge the server.
			used[ev.Server] = used[ev.Server].Add(ev.Demand)
			if !used[ev.Server].Fits(fleet.Server(ev.Server).Capacity) {
				return fmt.Errorf("verify: server %d over capacity at slot %d: %v > %v",
					ev.Server, ev.Slot, used[ev.Server], fleet.Server(ev.Server).Capacity)
			}
			ts.on = append(ts.on, ev.Server)
		case sim.TraceComplete:
			if ts.completed {
				return fmt.Errorf("verify: %v completed twice", ev.Ref)
			}
			// The live copy a completion ends was started by an earlier
			// placement in slot order, so no task completes unplaced.
			if !release(ts, ev.Server) {
				return fmt.Errorf("verify: %v completed with no live copy on server %d at slot %d", ev.Ref, ev.Server, ev.Slot)
			}
			used[ev.Server] = used[ev.Server].Sub(ev.Demand)
			if !used[ev.Server].IsValid() {
				return fmt.Errorf("verify: negative occupancy on server %d at slot %d", ev.Server, ev.Slot)
			}
			ts.completed = true
			if phaseDone[ev.Ref.Job] == nil {
				phaseDone[ev.Ref.Job] = make(map[workload.PhaseID]int)
				phaseDoneAt[ev.Ref.Job] = make(map[workload.PhaseID]int64)
			}
			phaseDone[ev.Ref.Job][ev.Ref.Phase]++
			if ev.Slot > phaseDoneAt[ev.Ref.Job][ev.Ref.Phase] {
				phaseDoneAt[ev.Ref.Job][ev.Ref.Phase] = ev.Slot
			}
		case sim.TraceKill, sim.TraceLost:
			if !release(ts, ev.Server) {
				return fmt.Errorf("verify: kill with no live copy for %v on server %d at slot %d", ev.Ref, ev.Server, ev.Slot)
			}
			used[ev.Server] = used[ev.Server].Sub(ev.Demand)
			if !used[ev.Server].IsValid() {
				return fmt.Errorf("verify: negative occupancy on server %d at slot %d", ev.Server, ev.Slot)
			}
		default:
			return fmt.Errorf("verify: unknown event kind %d", ev.Kind)
		}
		// Checked after the capacity check, so an oversized copy reports
		// the capacity it broke.
		if ev.Demand != ph.Demand {
			return fmt.Errorf("verify: %v at slot %d holds %v, its phase demands %v", ev.Ref, ev.Slot, ev.Demand, ph.Demand)
		}
	}

	// Terminal conditions: every task of every job completed exactly
	// once (Eq. 6 discharged), nothing left running, occupancy zero.
	for _, j := range jobs {
		for k := range j.Phases {
			for l := 0; l < j.Phases[k].Tasks; l++ {
				ref := workload.TaskRef{Job: j.ID, Phase: workload.PhaseID(k), Index: l}
				ts := tasks[ref]
				if ts == nil || !ts.completed {
					return fmt.Errorf("verify: task %v never completed", ref)
				}
				if len(ts.on) != 0 {
					return fmt.Errorf("verify: task %v left %d copies running", ref, len(ts.on))
				}
			}
		}
	}
	for id, u := range used {
		if !u.IsZero() {
			return fmt.Errorf("verify: server %d ends with occupancy %v", id, u)
		}
	}
	return nil
}
