package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/yarn"
)

// LocalityResult evaluates the §5.2 two-level architecture: flat
// DollyMP² versus the YARN-style RM/AM scheduler with data-locality
// binding, swept over the cross-rack transfer penalty. With no penalty
// the two are equivalent; as intermediate-data transfer grows costlier,
// the AM's locality preference pays.
type LocalityResult struct {
	Penalties []int64
	// FlatFlowtime and YARNFlowtime are total flowtimes per penalty.
	FlatFlowtime []int64
	YARNFlowtime []int64
}

// Locality runs the sweep on the two-rack testbed: 200 heavy-load
// WordCount jobs (scaled) under transfer penalties of 0, 2, 4 and 6
// slots.
func Locality(sc Scale) (*LocalityResult, error) {
	jobs, err := trace.Homogeneous("wordcount", sc.jobs(200), 10, heavyArrival, sc.Seed)
	if err != nil {
		return nil, err
	}
	res := &LocalityResult{Penalties: []int64{0, 2, 4, 6}}
	for _, pen := range res.Penalties {
		runOne := func(s sched.Scheduler) (int64, error) {
			e, err := sim.New(sim.Config{
				Cluster:         cluster.Testbed30(),
				Jobs:            jobs,
				Scheduler:       s,
				Seed:            sc.Seed,
				TransferPenalty: pen,
			})
			if err != nil {
				return 0, err
			}
			out, err := e.Run()
			if err != nil {
				return 0, err
			}
			return out.TotalFlowtime(), nil
		}
		flat, err := runOne(core.MustNew())
		if err != nil {
			return nil, err
		}
		two, err := runOne(yarn.New())
		if err != nil {
			return nil, err
		}
		res.FlatFlowtime = append(res.FlatFlowtime, flat)
		res.YARNFlowtime = append(res.YARNFlowtime, two)
	}
	return res, nil
}

// Write renders the sweep.
func (r *LocalityResult) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "§5.2 architecture: flat DollyMP² vs two-level YARN AM binding",
		Columns: []string{"transfer penalty (slots)", "flat flowtime", "two-level flowtime", "gain"},
	}
	for i := range r.Penalties {
		gain := 0.0
		if r.FlatFlowtime[i] > 0 {
			gain = 1 - float64(r.YARNFlowtime[i])/float64(r.FlatFlowtime[i])
		}
		tab.AddRow(r.Penalties[i], float64(r.FlatFlowtime[i]), float64(r.YARNFlowtime[i]),
			fmt.Sprintf("%.1f%%", 100*gain))
	}
	return tab.Write(w)
}
