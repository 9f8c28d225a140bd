package experiments

import (
	"io"
	"sort"

	"dollymp/internal/core"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
)

// RedundancyResult isolates the paper's §1 argument — proactive cloning
// beats reactive speculative execution for small jobs — by running THREE
// variants of the identical DollyMP policy: no redundancy, LATE-style
// speculation, and two-copy cloning. Differences are then attributable
// to the redundancy mechanism alone, not the scheduler.
type RedundancyResult struct {
	Order         []string
	TotalFlowtime map[string]float64
	// SmallJobP95 is the 95th-percentile flowtime of the smallest
	// quartile of jobs — where §1 says speculation fails ("it is
	// difficult to collect enough statistically significant samples of
	// tasks for small jobs").
	SmallJobP95 map[string]float64
	// ExtraCopies counts redundant copies launched per variant.
	ExtraCopies map[string]int
}

// Redundancy runs the three variants on 400 trace jobs (scaled) at
// §6.3.1's moderate load 0.5, where both mechanisms have room to launch
// copies.
func Redundancy(sc Scale) (*RedundancyResult, error) {
	fleet, jobs := sc.traceWorkload(400, 0.5)

	variants := []sched.Scheduler{
		core.MustNew(core.WithClones(0)),
		core.MustNew(core.WithSpeculation(1.5, 3)),
		core.MustNew(core.WithClones(2)),
	}
	outs, err := runAll(fleet, jobs, variants, sc.Seed)
	if err != nil {
		return nil, err
	}

	// The smallest quartile by task count.
	small := make(map[int64]bool) // job ID set
	{
		type jt struct {
			id    int64
			tasks int
		}
		all := make([]jt, len(jobs))
		for i, j := range jobs {
			all[i] = jt{int64(j.ID), j.TotalTasks()}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].tasks != all[b].tasks {
				return all[a].tasks < all[b].tasks
			}
			return all[a].id < all[b].id
		})
		for i := 0; i < len(all)/4; i++ {
			small[all[i].id] = true
		}
	}

	res := &RedundancyResult{
		TotalFlowtime: make(map[string]float64),
		SmallJobP95:   make(map[string]float64),
		ExtraCopies:   make(map[string]int),
	}
	for i, out := range outs {
		name := variants[i].Name()
		res.Order = append(res.Order, name)
		res.TotalFlowtime[name] = float64(out.TotalFlowtime())
		var smallFlows []float64
		extra := 0
		for _, jm := range out.Jobs {
			if small[int64(jm.ID)] {
				smallFlows = append(smallFlows, float64(jm.Flowtime))
			}
			extra += jm.CopiesLaunched - jm.TotalTasks
		}
		res.SmallJobP95[name] = stats.NewECDF(smallFlows).Quantile(0.95)
		res.ExtraCopies[name] = extra
	}
	return res, nil
}

// Write renders the comparison.
func (r *RedundancyResult) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Redundancy mechanism under identical DollyMP priorities (§1's cloning-vs-speculation argument)",
		Columns: []string{"variant", "total flowtime", "small-job p95 flowtime", "extra copies"},
	}
	for _, name := range r.Order {
		tab.AddRow(name, r.TotalFlowtime[name], r.SmallJobP95[name], r.ExtraCopies[name])
	}
	return tab.Write(w)
}
