package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sched/tetris"
)

// Ablations isolate DollyMP's design choices: the δ cloning budget, the
// variance factor r in e = θ + r·σ, and the Tetris ε weight the §2
// example turns on.

// CloneBudgetPoint is one δ setting's outcome.
type CloneBudgetPoint struct {
	Delta          float64
	TotalFlowtime  int64
	ExtraResources float64 // usage vs δ=0, minus 1
	ClonedTaskFrac float64
}

// AblationCloneBudgetResult sweeps δ for DollyMP².
type AblationCloneBudgetResult struct {
	Points []CloneBudgetPoint
}

// AblationCloneBudget sweeps δ over 0, 0.05, 0.1, 0.3, 0.6 and 1 on 300
// trace jobs (scaled) at load 0.6. The shape: flowtime drops steeply
// for small δ and flattens, while resource overhead keeps growing — the
// basis for §6.1's δ = 0.3.
func AblationCloneBudget(sc Scale) (*AblationCloneBudgetResult, error) {
	fleetFn, jobs := sc.traceWorkload(300, 0.6)
	total := fleetFn().Total()

	res := &AblationCloneBudgetResult{}
	baseUsage := -1.0
	for _, d := range []float64{0, 0.05, 0.1, 0.3, 0.6, 1} {
		s, err := core.New(core.WithClones(2), core.WithCloneBudget(d))
		if err != nil {
			return nil, err
		}
		out, err := run(fleetFn, jobs, s, sc.Seed)
		if err != nil {
			return nil, err
		}
		usage := 0.0
		for _, j := range out.Jobs {
			usage += j.Usage.Normalized(total)
		}
		if baseUsage < 0 {
			baseUsage = usage
		}
		extra := 0.0
		if baseUsage > 0 {
			extra = usage/baseUsage - 1
		}
		res.Points = append(res.Points, CloneBudgetPoint{
			Delta:          d,
			TotalFlowtime:  out.TotalFlowtime(),
			ExtraResources: extra,
			ClonedTaskFrac: out.ClonedTaskFraction(),
		})
	}
	return res, nil
}

// Write renders the sweep.
func (r *AblationCloneBudgetResult) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Ablation: cloning budget δ (DollyMP²)",
		Columns: []string{"δ", "total flowtime", "extra resources", "tasks cloned"},
	}
	for _, p := range r.Points {
		tab.AddRow(p.Delta, float64(p.TotalFlowtime),
			fmt.Sprintf("%.1f%%", 100*p.ExtraResources),
			fmt.Sprintf("%.1f%%", 100*p.ClonedTaskFrac))
	}
	return tab.Write(w)
}

// AblationVarianceFactorResult sweeps r, the variance penalty in the
// effective processing time (§5; the body text uses r = 1, the
// evaluation r = 1.5).
type AblationVarianceFactorResult struct {
	Rs        []float64
	Flowtimes []int64
}

// AblationVarianceFactor sweeps r over 0, 1, §6.1's 1.5 and 3 on 300
// trace jobs (scaled) at load 0.9.
func AblationVarianceFactor(sc Scale) (*AblationVarianceFactorResult, error) {
	fleetFn, jobs := sc.traceWorkload(300, 0.9)
	res := &AblationVarianceFactorResult{Rs: []float64{0, 1, 1.5, 3}}
	for _, r := range res.Rs {
		s, err := core.New(core.WithVarianceFactor(r))
		if err != nil {
			return nil, err
		}
		out, err := run(fleetFn, jobs, s, sc.Seed)
		if err != nil {
			return nil, err
		}
		res.Flowtimes = append(res.Flowtimes, out.TotalFlowtime())
	}
	return res, nil
}

// Write renders the sweep.
func (r *AblationVarianceFactorResult) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Ablation: variance factor r in e = θ + r·σ (DollyMP²)",
		Columns: []string{"r", "total flowtime"},
	}
	for i := range r.Rs {
		tab.AddRow(r.Rs[i], float64(r.Flowtimes[i]))
	}
	return tab.Write(w)
}

// AblationTetrisEpsilonResult sweeps Tetris's ε weight between alignment
// and the resource-usage term.
type AblationTetrisEpsilonResult struct {
	Epsilons  []float64
	Flowtimes []int64
}

// AblationTetrisEpsilon sweeps ε over 0.01, 0.1 and 1 on 200 heavy-load
// PageRank jobs (scaled).
func AblationTetrisEpsilon(sc Scale) (*AblationTetrisEpsilonResult, error) {
	jobs := heavyPagerank(sc.jobs(200), sc.Seed)
	res := &AblationTetrisEpsilonResult{Epsilons: []float64{0.01, 0.1, 1}}
	for _, e := range res.Epsilons {
		var s sched.Scheduler = &tetris.Scheduler{Epsilon: e, R: 1.5}
		out, err := run(func() *cluster.Cluster { return cluster.Testbed30() }, jobs, s, sc.Seed)
		if err != nil {
			return nil, err
		}
		res.Flowtimes = append(res.Flowtimes, out.TotalFlowtime())
	}
	return res, nil
}

// Write renders the sweep.
func (r *AblationTetrisEpsilonResult) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Ablation: Tetris ε (alignment vs resource-usage weight)",
		Columns: []string{"ε", "total flowtime"},
	}
	for i := range r.Epsilons {
		tab.AddRow(r.Epsilons[i], float64(r.Flowtimes[i]))
	}
	return tab.Write(w)
}
