package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/sim"
)

// StragglerAvoidanceResult evaluates the §8 future-work extension this
// repository implements: online learning of straggler-prone servers.
// A fraction of the fleet suffers background slowdown; DollyMP² with
// learned server ordering is compared to plain DollyMP².
type StragglerAvoidanceResult struct {
	// BaselineFlowtime and LearnedFlowtime are total flowtimes without
	// and with avoidance.
	BaselineFlowtime int64
	LearnedFlowtime  int64
	// Reduction is 1 − learned/baseline.
	Reduction float64
}

// StragglerAvoidance runs the comparison on 300 trace jobs (scaled) at
// load 0.4, with a quarter of the fleet slowed to 30% speed from slot 0.
func StragglerAvoidance(sc Scale) (*StragglerAvoidanceResult, error) {
	fleetFn, jobs := sc.traceWorkload(300, 0.4)

	var events []sim.Event
	slow := sc.Fleet / 4
	for i := 0; i < slow; i++ {
		events = append(events, sim.Event{
			At: 0, Server: cluster.ServerID(i * sc.Fleet / max(slow, 1)),
			Kind: sim.EventSlowdown, Factor: 0.3,
		})
	}

	runOne := func(s *core.Scheduler) (*sim.Result, error) {
		e, err := sim.New(sim.Config{
			Cluster: fleetFn(), Jobs: jobs, Scheduler: s, Seed: sc.Seed,
			Events: events,
		})
		if err != nil {
			return nil, err
		}
		return e.Run()
	}

	base, err := runOne(core.MustNew())
	if err != nil {
		return nil, err
	}
	learned, err := runOne(core.MustNew(core.WithStragglerAvoidance(true)))
	if err != nil {
		return nil, err
	}

	res := &StragglerAvoidanceResult{
		BaselineFlowtime: base.TotalFlowtime(),
		LearnedFlowtime:  learned.TotalFlowtime(),
	}
	if base.TotalFlowtime() > 0 {
		res.Reduction = 1 - float64(learned.TotalFlowtime())/float64(base.TotalFlowtime())
	}
	return res, nil
}

// Write renders the comparison.
func (r *StragglerAvoidanceResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Straggler-avoidance extension (§8 future work):\n"+
			"  DollyMP² total flowtime:           %d\n"+
			"  DollyMP² + learned server order:   %d (−%.1f%%)\n",
		r.BaselineFlowtime, r.LearnedFlowtime, 100*r.Reduction)
	return err
}
