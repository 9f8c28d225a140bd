package experiments

import (
	"io"

	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sched/drf"
	"dollymp/internal/sched/tetris"
	"dollymp/internal/stats"
)

// Figure8Result holds the §6.3.1 trace-driven comparison at moderate
// load: DollyMP² against Tetris on per-job duration and against DRF on
// per-job resource usage. Paper shapes: ≥40% of jobs gain ≥30% in
// flowtime vs Tetris with an average speedup of 22%; ~70% of jobs use
// about double the resources of DRF while the total overhead stays
// ~60%; makespan drops ~18%.
type Figure8Result struct {
	// DurationRatioCDF is the CDF of flowtime(DollyMP²)/flowtime(Tetris)
	// per job (Fig. 8a).
	DurationRatioCDF metrics.Series
	// ResourceRatioCDF is the CDF of usage(DollyMP²)/usage(DRF) per job
	// (Fig. 8b).
	ResourceRatioCDF metrics.Series
	// FracSpedUp30 is the fraction of jobs ≥30% faster than Tetris.
	FracSpedUp30 float64
	// AvgSpeedup is 1 − mean(flow_D2)/mean(flow_Tetris).
	AvgSpeedup float64
	// ResourceOverhead is total usage(D2)/total usage(DRF) − 1.
	ResourceOverhead float64
	// MakespanReduction is 1 − makespan(D2)/makespan(Tetris).
	MakespanReduction float64
}

// Figure8 runs the experiment as §6.3.1 sets it: 600 trace jobs
// (scaled) at load 0.5 of the fleet's capacity — "the cluster load is
// not high".
func Figure8(sc Scale) (*Figure8Result, error) {
	fleet, jobs := sc.traceWorkload(600, 0.5)

	outs, err := runAll(fleet, jobs, []sched.Scheduler{
		dolly(2), &tetris.Scheduler{R: 1.5}, &drf.Scheduler{},
	}, sc.Seed)
	if err != nil {
		return nil, err
	}
	d2, tet, dr := outs[0], outs[1], outs[2]

	fa, fb := pairedFlowtimes(d2, tet)
	durRatios := stats.Ratios(fa, fb)
	ua, ub := pairedNormalizedUsage(d2, dr, fleet())
	useRatios := stats.Ratios(ua, ub)

	res := &Figure8Result{
		DurationRatioCDF: metrics.CDFSeries("flow(D2)/flow(Tetris)", durRatios, 20),
		ResourceRatioCDF: metrics.CDFSeries("use(D2)/use(DRF)", useRatios, 20),
		FracSpedUp30:     stats.FractionBelow(durRatios, 0.7),
		AvgSpeedup:       1 - stats.Mean(fa)/stats.Mean(fb),
	}
	if tot := stats.Sum(ub); tot > 0 {
		res.ResourceOverhead = stats.Sum(ua)/tot - 1
	}
	if tet.Makespan > 0 {
		res.MakespanReduction = 1 - float64(d2.Makespan)/float64(tet.Makespan)
	}
	return res, nil
}

// Write renders the two ratio CDFs and the headline numbers.
func (r *Figure8Result) Write(w io.Writer) error {
	if err := writeSeriesTable(w, "Figure 8a: job duration ratio DollyMP²/Tetris", "ratio",
		[]metrics.Series{r.DurationRatioCDF}); err != nil {
		return err
	}
	if err := writeSeriesTable(w, "Figure 8b: resource usage ratio DollyMP²/DRF", "ratio",
		[]metrics.Series{r.ResourceRatioCDF}); err != nil {
		return err
	}
	tab := &metrics.Table{Title: "Figure 8 summary", Columns: []string{"metric", "value"}}
	tab.AddRow("jobs ≥30% faster vs Tetris", r.FracSpedUp30)
	tab.AddRow("average speedup vs Tetris", r.AvgSpeedup)
	tab.AddRow("total resource overhead vs DRF", r.ResourceOverhead)
	tab.AddRow("makespan reduction vs Tetris", r.MakespanReduction)
	return tab.Write(w)
}
