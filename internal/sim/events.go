package sim

import (
	"fmt"
	"sort"

	"dollymp/internal/cluster"
)

// EventKind enumerates fleet perturbations the simulator can inject.
type EventKind int

// Supported injections.
const (
	// EventSlowdown sets the server's background-interference factor —
	// the time-varying co-located load of §2. Affects copies placed
	// after the event (running copies keep their sampled durations, as
	// a container's work already in flight is sunk).
	EventSlowdown EventKind = iota
	// EventRecover clears background interference (factor 1).
	EventRecover
	// EventFail takes the server offline: every running copy on it is
	// lost; a task whose last copy is lost reverts to pending and will
	// be rescheduled. Tasks with surviving clones elsewhere continue —
	// cloning doubles as fault tolerance.
	EventFail
	// EventRestore brings a failed server back online, fully free.
	EventRestore
)

// Event is one scheduled perturbation.
type Event struct {
	At     int64
	Server cluster.ServerID
	Kind   EventKind
	// Factor is the slowdown factor in (0, 1] for EventSlowdown.
	Factor float64
}

func (e Event) validate(c *cluster.Cluster) error {
	if e.At < 0 {
		return fmt.Errorf("sim: event at negative slot %d", e.At)
	}
	if !c.Contains(e.Server) {
		return fmt.Errorf("sim: event for unknown server %d", e.Server)
	}
	switch e.Kind {
	case EventSlowdown:
		if !(e.Factor > 0) || e.Factor > 1 {
			return fmt.Errorf("sim: slowdown factor %v out of (0,1]", e.Factor)
		}
	case EventRecover, EventFail, EventRestore:
	default:
		return fmt.Errorf("sim: unknown event kind %d", e.Kind)
	}
	return nil
}

// sortEvents validates and orders the injection schedule.
func sortEvents(events []Event, c *cluster.Cluster) ([]Event, error) {
	out := make([]Event, len(events))
	copy(out, events)
	for _, e := range out {
		if err := e.validate(c); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// processEvents applies every injection due at or before the clock.
func (e *Engine) processEvents() error {
	for e.nextEvent < len(e.events) && e.events[e.nextEvent].At <= e.clock {
		ev := e.events[e.nextEvent]
		e.nextEvent++
		switch ev.Kind {
		case EventSlowdown:
			if err := e.cfg.Cluster.SetBackground(ev.Server, ev.Factor); err != nil {
				return err
			}
		case EventRecover:
			if err := e.cfg.Cluster.SetBackground(ev.Server, 1); err != nil {
				return err
			}
		case EventFail:
			if err := e.failServer(ev.Server); err != nil {
				return err
			}
		case EventRestore:
			e.cfg.Cluster.Restore(ev.Server)
		}
	}
	return nil
}

// failServer kills every copy on the server and takes it offline. Tasks
// whose last copy died revert to pending. The copy tables are walked in
// e.active, phase, task order, so the TraceLost events of one failure
// come out in the same order on every run.
func (e *Engine) failServer(id cluster.ServerID) error {
	if e.cfg.Cluster.Server(id).Failed() {
		return nil // already down
	}
	for _, js := range e.active {
		lj := e.states[js.Job.ID]
		for k := range lj.phases {
			heads := lj.phases[k].heads
			for l := range heads {
				// Unlink in place; survivors keep their order and their
				// clone flags (those only feed budget accounting, which
				// is adjusted below for the copies that died).
				for at := &heads[l]; *at != nil; {
					c := *at
					if c.server != id {
						at = &c.next
						continue
					}
					*at = c.kill()
					if err := e.loseCopy(lj, c); err != nil {
						return fmt.Errorf("sim: fail %d: %w", id, err)
					}
				}
			}
		}
	}
	e.cfg.Cluster.Fail(id)
	return nil
}

// loseCopy accounts for a copy whose server failed under it: its
// partial work is lost but its resources were consumed until now. The
// killed copy stays in the running heap until its finish slot pops it.
func (e *Engine) loseCopy(lj *liveJob, c *taskCopy) error {
	if err := e.cfg.Cluster.Release(c.server, c.demand); err != nil {
		return err
	}
	lj.Usage.AddFor(c.demand, e.clock-c.start)
	e.res.TotalUsage.AddFor(c.demand, e.clock-c.start)
	if c.clone {
		e.cloneUse = e.cloneUse.Sub(c.demand)
	}
	lj.alloc = lj.alloc.Sub(c.demand)
	e.res.CopiesLostToFailures++
	if e.obs != nil {
		e.observe(TraceLost, c, 0, nil)
	}
	lj.DropCopy(c.ref.Phase, c.ref.Index)
	return nil
}

// nextInjectionTime returns the next pending injection slot, if any.
func (e *Engine) nextInjectionTime() (int64, bool) {
	if e.nextEvent < len(e.events) {
		return e.events[e.nextEvent].At, true
	}
	return 0, false
}
