package sim

// Online driving of the engine. A batch run hands the full workload to
// New and calls Run; an online caller (internal/service) constructs the
// engine with Config.Online, then alternates InjectJob and Step from a
// single goroutine, letting jobs arrive while earlier ones execute. The
// engine stays a pure function of its inputs: injection only appends to
// the not-yet-arrived suffix of the arrival order, so a run that injects
// each job right before its arrival slot is indistinguishable from a
// batch run handed the same jobs up front.

import (
	"fmt"
	"io"

	"dollymp/internal/workload"
)

// lookahead is the most injected-but-not-arrived jobs Drain keeps ahead
// of the engine clock.
const lookahead = 4096

// Start prepares the engine for stepping: resets the cluster ledger and
// stamps the scheduler name. Idempotent; Run and Step call it implicitly.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.cfg.Cluster.Reset()
	e.res.Scheduler = e.cfg.Scheduler.Name()
}

// InjectJob adds one job to a (possibly running) engine. The job is
// validated, its ID must be unused, and its arrival is clamped forward to
// the current clock so it arrives at the next slot boundary — the engine
// never rewrites history. The effective arrival slot is returned. The
// engine takes ownership of the job (its Arrival may be rewritten).
// Requires Config.Online; call from the engine's goroutine only.
func (e *Engine) InjectJob(j *workload.Job) (int64, error) {
	if !e.cfg.Online {
		return 0, fmt.Errorf("sim: InjectJob requires Config.Online")
	}
	if err := j.Validate(); err != nil {
		return 0, fmt.Errorf("sim: inject: %w", err)
	}
	if _, dup := e.states[j.ID]; dup || e.done.Has(j.ID) {
		return 0, fmt.Errorf("sim: inject: duplicate job ID %d", j.ID)
	}
	if j.Arrival < e.clock {
		j.Arrival = e.clock
	}
	lj := newLiveJob(j)
	e.states[j.ID] = lj
	// O(log pending) heap push; clamping guarantees the entry sorts
	// after every already-consumed arrival, so history is never
	// rewritten. The heap holds only pending arrivals — consumed
	// entries were released at pop — so a long-running daemon's arrival
	// queue stays proportional to its backlog, not its lifetime intake.
	e.arrivals.Push(lj.JobState)
	return j.Arrival, nil
}

// Drain drives the engine through every job next yields — in arrival
// order, io.EOF at the end — and returns the finalized result. At most
// lookahead injected jobs are ever waiting to arrive, the shape of a
// live daemon's admission stream, so memory follows the live set (the
// window plus the active jobs) and never the length of the source. The
// window stays ahead of the clock, so a sorted source is never clamped
// and, unless more than lookahead jobs share one arrival slot, the run
// is the batch run of the same jobs; a job out of order is clamped
// forward as InjectJob does. A source or inject error ends the drain
// and is returned as is. Requires Config.Online.
func (e *Engine) Drain(next func() (*workload.Job, error)) (*Result, error) {
	dry := false
	for {
		for !dry && e.PendingArrivals() < lookahead {
			j, err := next()
			if err == io.EOF {
				dry = true
				break
			}
			if err != nil {
				return nil, err
			}
			if _, err := e.InjectJob(j); err != nil {
				return nil, err
			}
		}
		idle, err := e.Step()
		if err != nil {
			return nil, err
		}
		if idle && dry {
			return e.Finalize(), nil
		}
	}
}

// Clock returns the current virtual time in slots.
func (e *Engine) Clock() int64 { return e.clock }

// Idle reports whether the engine has nothing to do: no active jobs and
// no pending arrivals. An idle online engine resumes when the next job
// is injected.
func (e *Engine) Idle() bool {
	return len(e.active) == 0 && e.arrivals.Len() == 0
}

// ActiveJobs returns the number of arrived, unfinished jobs.
func (e *Engine) ActiveJobs() int { return len(e.active) }

// PendingArrivals returns the number of injected jobs that have not yet
// arrived.
func (e *Engine) PendingArrivals() int { return e.arrivals.Len() }

// CompletedJobs returns the number of jobs that have finished so far.
func (e *Engine) CompletedJobs() int { return e.res.Completed }

// Finalize computes the run-level aggregates (average utilization) and
// returns the result collected so far. Safe to call repeatedly; Run
// calls it on completion, online callers at shutdown.
func (e *Engine) Finalize() *Result {
	e.finalizeResult()
	return &e.res
}
