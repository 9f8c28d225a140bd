package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
)

// EstimationResult quantifies what §5.2's AM estimation costs relative
// to oracle task statistics: DollyMP² with declared (true) stats versus
// DollyMP² that must learn durations from recurring jobs and early
// tasks. The paper's implicit claim is that the gap is small because
// recurring jobs dominate production clusters.
type EstimationResult struct {
	OracleFlowtime    int64
	EstimatedFlowtime int64
	// Penalty is estimated/oracle − 1 (positive = estimation costs).
	Penalty float64
}

// Estimation runs the comparison on a recurring-heavy workload, 300
// heavy-load PageRank jobs (scaled) on the 30-node testbed: the template
// repeats phase names across jobs, so history accumulates quickly.
func Estimation(sc Scale) (*EstimationResult, error) {
	jobs := heavyPagerank(sc.jobs(300), sc.Seed)
	fleetFn := func() *cluster.Cluster { return cluster.Testbed30() }

	oracle, err := run(fleetFn, jobs, core.MustNew(), sc.Seed)
	if err != nil {
		return nil, err
	}
	estimated, err := run(fleetFn, jobs,
		core.MustNew(core.WithEstimation(estimate.Config{})), sc.Seed)
	if err != nil {
		return nil, err
	}

	res := &EstimationResult{
		OracleFlowtime:    oracle.TotalFlowtime(),
		EstimatedFlowtime: estimated.TotalFlowtime(),
	}
	if oracle.TotalFlowtime() > 0 {
		res.Penalty = float64(estimated.TotalFlowtime())/float64(oracle.TotalFlowtime()) - 1
	}
	return res, nil
}

// Write renders the comparison.
func (r *EstimationResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"AM estimation ablation (§5.2):\n"+
			"  DollyMP² with oracle statistics:     %d\n"+
			"  DollyMP² with AM estimation:         %d (%+.1f%%)\n",
		r.OracleFlowtime, r.EstimatedFlowtime, 100*r.Penalty)
	return err
}
