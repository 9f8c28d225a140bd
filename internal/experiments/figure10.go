package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/workload"
)

// Figure10Result holds the §6.3.1 load sweep: the workload is fixed while
// the fleet shrinks, multiplying the load; DollyMP² is compared against
// DollyMP⁰ at each point. Paper shapes: even at 10× load, cloning still
// cuts total flowtime ~10% with only ~2% extra resources, and ~40% of
// tasks carry clones at high load.
type Figure10Result struct {
	// LoadFactor[i] is the fleet shrink factor (1 = base fleet).
	LoadFactor []float64
	// FlowReduction[i] is 1 − flow(D2)/flow(D0).
	FlowReduction []float64
	// ExtraResource[i] is usage(D2)/usage(D0) − 1.
	ExtraResource []float64
	// ClonedTaskFrac[i] is the fraction of tasks with ≥1 clone under D2.
	ClonedTaskFrac []float64
	// JobsImproved20[i] is the fraction of jobs ≥20% faster under D2.
	JobsImproved20 []float64
}

// Figure10 runs the sweep as §6.3.1 sets it, load from 1× to 10×: 400
// trace jobs (scaled) arrive at load 0.12 of the scale's fleet, which
// then shrinks by the factors 1, 2, 5 and 10. 10× the base load pushes
// the smallest fleet past saturation, the regime where the paper
// reports ~10% flowtime gain at ~2% extra resources.
func Figure10(sc Scale) (*Figure10Result, error) {
	_, jobs := sc.traceWorkload(400, 0.12)
	res := &Figure10Result{}
	for _, f := range []float64{1, 2, 5, 10} {
		servers := int(float64(sc.Fleet)/f + 0.5)
		if servers < 4 {
			servers = 4
		}
		fleet := func() *cluster.Cluster { return cluster.LargeFleet(servers, sc.Seed) }
		if err := feasible(fleet(), jobs); err != nil {
			return nil, fmt.Errorf("figure10 at factor %v: %w", f, err)
		}
		d0, err := run(fleet, jobs, dolly(0), sc.Seed)
		if err != nil {
			return nil, err
		}
		d2, err := run(fleet, jobs, dolly(2), sc.Seed)
		if err != nil {
			return nil, err
		}
		res.LoadFactor = append(res.LoadFactor, f)
		res.FlowReduction = append(res.FlowReduction,
			1-float64(d2.TotalFlowtime())/float64(d0.TotalFlowtime()))
		total := fleet().Total()
		u0, u2 := 0.0, 0.0
		for _, j := range d0.Jobs {
			u0 += j.Usage.Normalized(total)
		}
		for _, j := range d2.Jobs {
			u2 += j.Usage.Normalized(total)
		}
		extra := 0.0
		if u0 > 0 {
			extra = u2/u0 - 1
		}
		res.ExtraResource = append(res.ExtraResource, extra)
		res.ClonedTaskFrac = append(res.ClonedTaskFrac, d2.ClonedTaskFraction())
		f2, f0 := pairedFlowtimes(d2, d0)
		improved := 0
		for i := range f2 {
			if f0[i] > 0 && f2[i]/f0[i] <= 0.8 {
				improved++
			}
		}
		frac := 0.0
		if len(f2) > 0 {
			frac = float64(improved) / float64(len(f2))
		}
		res.JobsImproved20 = append(res.JobsImproved20, frac)
	}
	return res, nil
}

// feasible verifies every task demand fits at least one server, so a
// shrunken fleet cannot deadlock the simulation.
func feasible(c *cluster.Cluster, jobs []*workload.Job) error {
	maxCap := c.Server(0).Capacity
	for _, s := range c.Servers() {
		maxCap = maxCap.Max(s.Capacity)
	}
	for _, j := range jobs {
		for k := range j.Phases {
			if !j.Phases[k].Demand.Fits(maxCap) {
				return fmt.Errorf("task demand %v exceeds every server (max %v)",
					j.Phases[k].Demand, maxCap)
			}
		}
	}
	return nil
}

// Write renders the sweep.
func (r *Figure10Result) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title: "Figure 10: cloning effect vs cluster load (DollyMP² vs DollyMP⁰)",
		Columns: []string{"load factor", "flowtime reduction", "extra resources",
			"tasks cloned", "jobs ≥20% faster"},
	}
	for i := range r.LoadFactor {
		tab.AddRow(
			r.LoadFactor[i],
			fmt.Sprintf("%.1f%%", 100*r.FlowReduction[i]),
			fmt.Sprintf("%.1f%%", 100*r.ExtraResource[i]),
			fmt.Sprintf("%.1f%%", 100*r.ClonedTaskFrac[i]),
			fmt.Sprintf("%.1f%%", 100*r.JobsImproved20[i]),
		)
	}
	return tab.Write(w)
}
