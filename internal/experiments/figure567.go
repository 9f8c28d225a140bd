package experiments

import (
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// HeavyLoadResult holds one §6.2.2 heavy-load experiment (500 jobs of one
// application arriving ~20 s apart) for one application, covering three
// paper figures at once:
//   - Fig. 5: running-time CDF per scheduler,
//   - Fig. 6: flowtime CDF per scheduler,
//   - Fig. 7: cumulative flowtime over arrivals per scheduler.
//
// Paper shapes: every DollyMP job finishes within a running time only
// ~80% of Tetris jobs reach; DollyMP's total flowtime is ~50% below
// Capacity and ~30% below Tetris.
type HeavyLoadResult struct {
	App           string
	Order         []string
	RunningCDF    []metrics.Series // Fig. 5
	FlowtimeCDF   []metrics.Series // Fig. 6
	Cumulative    []metrics.Series // Fig. 7
	TotalFlowtime map[string]float64
}

// HeavyLoad runs one heavy-load experiment of app ("pagerank" or
// "wordcount") as §6.2.2 sets it — 500 jobs (scaled), heavyGap ≈ 20 s
// apart — under Capacity, Tetris and DollyMP² (the schedulers Figs. 5–7
// plot). PageRank jobs alternate 10 GB and 1 GB inputs, WordCount jobs
// read 10 GB.
func HeavyLoad(sc Scale, app string) (*HeavyLoadResult, error) {
	n := sc.jobs(500)
	var jobs []*workload.Job
	if app == "pagerank" {
		jobs = heavyPagerank(n, sc.Seed)
	} else {
		// Homogeneous refuses every application but these two.
		var err error
		if jobs, err = trace.Homogeneous(app, n, 10, heavyArrival, sc.Seed); err != nil {
			return nil, err
		}
	}
	scheds := []sched.Scheduler{
		capacity.Default(),
		&tetris.Scheduler{R: 1.5},
		dolly(2),
	}
	res := &HeavyLoadResult{
		App:           app,
		TotalFlowtime: make(map[string]float64),
	}
	outs, err := runAll(func() *cluster.Cluster { return cluster.Testbed30() }, jobs, scheds, sc.Seed)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		name := scheds[i].Name()
		if err := checkJobs(out, len(jobs), "heavyload/"+name); err != nil {
			return nil, err
		}
		res.Order = append(res.Order, name)
		res.RunningCDF = append(res.RunningCDF, metrics.CDFSeries(name, out.RunningTimes(), 20))
		res.FlowtimeCDF = append(res.FlowtimeCDF, metrics.CDFSeries(name, out.Flowtimes(), 20))
		res.Cumulative = append(res.Cumulative, metrics.Series{
			Name:   name,
			Points: sampleCumulative(out.CumulativeFlowtime(), 20),
		})
		res.TotalFlowtime[name] = float64(out.TotalFlowtime())
	}
	return res, nil
}

// sampleCumulative thins the cumulative-flowtime series to n points for
// tabular output.
func sampleCumulative(pts []stats.Point, n int) []stats.Point {
	if len(pts) <= n {
		return pts
	}
	out := make([]stats.Point, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(pts)/n - 1
		out = append(out, pts[idx])
	}
	return out
}

// Write renders Figs. 5, 6 and 7 for this application.
func (r *HeavyLoadResult) Write(w io.Writer) error {
	if err := writeSeriesTable(w, "Figure 5 ("+r.App+"): running time CDF, heavy load", "slots", r.RunningCDF); err != nil {
		return err
	}
	if err := writeSeriesTable(w, "Figure 6 ("+r.App+"): flowtime CDF, heavy load", "slots", r.FlowtimeCDF); err != nil {
		return err
	}
	cum := &metrics.Table{
		Title:   "Figure 7 (" + r.App + "): cumulative flowtime over arrivals (slots)",
		Columns: append([]string{"arrival"}, r.Order...),
	}
	if len(r.Cumulative) > 0 {
		for i := range r.Cumulative[0].Points {
			row := []interface{}{r.Cumulative[0].Points[i].X}
			for _, s := range r.Cumulative {
				if i < len(s.Points) {
					row = append(row, s.Points[i].Y)
				} else {
					row = append(row, "-")
				}
			}
			cum.AddRow(row...)
		}
	}
	if err := cum.Write(w); err != nil {
		return err
	}
	tab := &metrics.Table{
		Title:   "Figure 7 summary (" + r.App + "): total flowtime (slots)",
		Columns: []string{"scheduler", "total flowtime"},
	}
	for _, name := range r.Order {
		tab.AddRow(name, r.TotalFlowtime[name])
	}
	return tab.Write(w)
}
