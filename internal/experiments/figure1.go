package experiments

import (
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sched/capacity"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// Figure1Result holds the §2 motivation experiment: one 4 GB WordCount
// job submitted repeatedly on the idle 30-node testbed under Capacity,
// DollyMP⁰, DollyMP¹ and DollyMP². The paper's shape: DollyMP² cuts the
// average running time by ~20% versus Capacity and is far more stable.
type Figure1Result struct {
	Schedulers []string
	// Runs[s][r] is the running time (slots) of run r under scheduler s.
	Runs [][]float64
	// Mean[s] and SD[s] summarize each scheduler's runs.
	Mean []float64
	SD   []float64
}

// Figure1 runs the experiment as §2 sets it: eight repeats of a 4 GB
// WordCount, each a fresh submission to an idle cluster; straggler
// draws differ per run but are identical across schedulers (same
// per-run seed). Only the scale's seed is read.
func Figure1(sc Scale) (*Figure1Result, error) {
	const (
		repeats = 8
		inputGB = 4
	)
	scheds := []sched.Scheduler{
		capacity.Default(), dolly(0), dolly(1), dolly(2),
	}
	res := &Figure1Result{}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
		runs := make([]float64, 0, repeats)
		var sum stats.Summary
		for r := 0; r < repeats; r++ {
			job := trace.WordCount(0, 0, inputGB, stats.NewRNG(sc.Seed).Split(uint64(r)))
			out, err := run(
				func() *cluster.Cluster { return cluster.Testbed30() },
				[]*workload.Job{job},
				s,
				sc.Seed+uint64(r)*1000,
			)
			if err != nil {
				return nil, err
			}
			if err := checkJobs(out, 1, "figure1"); err != nil {
				return nil, err
			}
			rt := float64(out.Jobs[0].RunningTime)
			runs = append(runs, rt)
			sum.Add(rt)
		}
		res.Runs = append(res.Runs, runs)
		res.Mean = append(res.Mean, sum.Mean())
		res.SD = append(res.SD, sum.SD())
	}
	return res, nil
}

// Write renders the figure as a table of per-run times plus summary rows.
func (r *Figure1Result) Write(w io.Writer) error {
	tab := &metrics.Table{
		Title:   "Figure 1: WordCount running time per run (slots)",
		Columns: append([]string{"run"}, r.Schedulers...),
	}
	if len(r.Runs) == 0 {
		return tab.Write(w)
	}
	for run := 0; run < len(r.Runs[0]); run++ {
		row := make([]interface{}, 0, len(r.Schedulers)+1)
		row = append(row, run+1)
		for s := range r.Schedulers {
			row = append(row, r.Runs[s][run])
		}
		tab.AddRow(row...)
	}
	mean := []interface{}{"mean"}
	sd := []interface{}{"sd"}
	for s := range r.Schedulers {
		mean = append(mean, r.Mean[s])
		sd = append(sd, r.SD[s])
	}
	tab.AddRow(mean...)
	tab.AddRow(sd...)
	return tab.Write(w)
}
