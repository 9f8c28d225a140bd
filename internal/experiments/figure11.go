package experiments

import (
	"io"

	"dollymp/internal/metrics"
	"dollymp/internal/sched/carbyne"
	"dollymp/internal/stats"
)

// Figure11Result holds the §6.3.2 comparison with the state of the art:
// DollyMP² against Carbyne under heavy load. Paper shapes: ~30% of jobs
// finish ≥80% faster, ~60% of jobs consume the same resources, and the
// mean completion time drops ~25%.
type Figure11Result struct {
	// JCTRatioCDF is flow(D2)/flow(Carbyne) per job (Fig. 11a).
	JCTRatioCDF metrics.Series
	// ResourceRatioCDF is usage(D2)/usage(Carbyne) per job (Fig. 11b).
	ResourceRatioCDF metrics.Series
	// FracFaster80 is the fraction of jobs ≥80% faster.
	FracFaster80 float64
	// MeanReduction is 1 − mean(flow_D2)/mean(flow_Carbyne).
	MeanReduction float64
}

// Figure11 runs the comparison under §6.3.2's heavy load: 600 trace
// jobs (scaled) at load 1.2.
func Figure11(sc Scale) (*Figure11Result, error) {
	fleet, jobs := sc.traceWorkload(600, 1.2)

	d2, err := run(fleet, jobs, dolly(2), sc.Seed)
	if err != nil {
		return nil, err
	}
	carb, err := run(fleet, jobs, &carbyne.Scheduler{R: 1.5}, sc.Seed)
	if err != nil {
		return nil, err
	}

	fa, fb := pairedFlowtimes(d2, carb)
	jct := stats.Ratios(fa, fb)
	ua, ub := pairedNormalizedUsage(d2, carb, fleet())
	use := stats.Ratios(ua, ub)

	return &Figure11Result{
		JCTRatioCDF:      metrics.CDFSeries("flow(D2)/flow(Carbyne)", jct, 20),
		ResourceRatioCDF: metrics.CDFSeries("use(D2)/use(Carbyne)", use, 20),
		FracFaster80:     stats.FractionBelow(jct, 0.2),
		MeanReduction:    1 - stats.Mean(fa)/stats.Mean(fb),
	}, nil
}

// Write renders the two CDFs and the summary.
func (r *Figure11Result) Write(w io.Writer) error {
	if err := writeSeriesTable(w, "Figure 11a: JCT ratio DollyMP²/Carbyne", "ratio",
		[]metrics.Series{r.JCTRatioCDF}); err != nil {
		return err
	}
	if err := writeSeriesTable(w, "Figure 11b: resource ratio DollyMP²/Carbyne", "ratio",
		[]metrics.Series{r.ResourceRatioCDF}); err != nil {
		return err
	}
	tab := &metrics.Table{Title: "Figure 11 summary", Columns: []string{"metric", "value"}}
	tab.AddRow("jobs ≥80% faster", r.FracFaster80)
	tab.AddRow("mean JCT reduction", r.MeanReduction)
	return tab.Write(w)
}
