package experiments

import (
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/drf"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/trace"
)

// Figure4Result holds the §6.2.1 lightly-loaded deployment experiment:
// 100 jobs (half PageRank, half WordCount) arriving ~200 s apart on the
// 30-node testbed. Fig. 4a reports total flowtime per scheduler; Fig. 4b
// the running-time CDF. Paper shapes: DollyMP² ≈10% below Capacity on
// flowtime; 95% of jobs finish within the time only 80% reach under
// Capacity.
type Figure4Result struct {
	// TotalFlowtime (slots) per scheduler, Fig. 4a.
	TotalFlowtime map[string]float64
	MeanFlowtime  map[string]float64
	// RunningCDF per scheduler, Fig. 4b.
	RunningCDF []metrics.Series
	Order      []string
}

// Figure4 runs the experiment as §6.2.1 sets it: 100 jobs (scaled),
// 40 slots ≈ 200 s apart at 5 s slots.
func Figure4(sc Scale) (*Figure4Result, error) {
	jobs := trace.MixedDeployment(sc.jobs(100),
		trace.Arrival{Kind: trace.FixedInterval, MeanGap: 40}, sc.Seed)
	scheds := []sched.Scheduler{
		capacity.Default(),
		&tetris.Scheduler{R: 1.5},
		&drf.Scheduler{},
		dolly(0), dolly(1), dolly(2),
	}
	res := &Figure4Result{
		TotalFlowtime: make(map[string]float64),
		MeanFlowtime:  make(map[string]float64),
	}
	outs, err := runAll(func() *cluster.Cluster { return cluster.Testbed30() }, jobs, scheds, sc.Seed)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		name := scheds[i].Name()
		if err := checkJobs(out, len(jobs), "figure4/"+name); err != nil {
			return nil, err
		}
		res.Order = append(res.Order, name)
		res.TotalFlowtime[name] = float64(out.TotalFlowtime())
		res.MeanFlowtime[name] = out.MeanFlowtime()
		res.RunningCDF = append(res.RunningCDF,
			metrics.CDFSeries(name, out.RunningTimes(), 20))
	}
	return res, nil
}

// Write renders Fig. 4a and 4b.
func (r *Figure4Result) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Figure 4a: total job flowtime, lightly loaded (slots)",
		Columns: []string{"scheduler", "total flowtime", "mean flowtime"},
	}
	for _, name := range r.Order {
		tab.AddRow(name, r.TotalFlowtime[name], r.MeanFlowtime[name])
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	return writeSeriesTable(w, "Figure 4b: running time CDF", "slots", r.RunningCDF)
}
