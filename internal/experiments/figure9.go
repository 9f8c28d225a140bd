package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/stats"
)

// Figure9Result holds the §6.3.1 clone-count sweep: DollyMP¹ through
// DollyMP³ against DollyMP⁰ on the trace-driven workload. Paper shapes:
// going from one to two clones helps >30% of jobs cut flowtime by 20%,
// while a third clone helps only ~5% more jobs and costs ~15% extra
// resources.
type Figure9Result struct {
	// SpeedupCDF[k-1] is the CDF of flow(DollyMP^k)/flow(DollyMP⁰).
	SpeedupCDF []metrics.Series
	// FracImproved20[k-1] is the fraction of jobs ≥20% faster under
	// DollyMP^k than under DollyMP^(k−1).
	FracImproved20 []float64
	// TotalUsage[k] is the cluster-normalized total resource usage of
	// DollyMP^k (k = 0 .. 3).
	TotalUsage []float64
}

// Figure9 runs DollyMP⁰..³ over Fig. 8's workload (§6.3.1): 600 trace
// jobs (scaled) at load 0.5.
func Figure9(sc Scale) (*Figure9Result, error) {
	fleet, jobs := sc.traceWorkload(600, 0.5)
	total := fleet().Total()

	scheds := make([]sched.Scheduler, 4)
	for k := 0; k <= 3; k++ {
		scheds[k] = dolly(k)
	}
	results, err := runAll(fleet, jobs, scheds, sc.Seed)
	if err != nil {
		return nil, err
	}

	res := &Figure9Result{}
	for k := 0; k <= 3; k++ {
		usage := 0.0
		for _, j := range results[k].Jobs {
			usage += j.Usage.Normalized(total)
		}
		res.TotalUsage = append(res.TotalUsage, usage)
	}
	for k := 1; k <= 3; k++ {
		fa, f0 := pairedFlowtimes(results[k], results[0])
		ratios := stats.Ratios(fa, f0)
		res.SpeedupCDF = append(res.SpeedupCDF,
			metrics.CDFSeries(results[k].Scheduler+"/dollymp0", ratios, 20))
		fk, fkm1 := pairedFlowtimes(results[k], results[k-1])
		res.FracImproved20 = append(res.FracImproved20,
			stats.FractionBelow(stats.Ratios(fk, fkm1), 0.8))
	}
	return res, nil
}

// Write renders the sweep.
func (r *Figure9Result) Write(w io.Writer) error {
	if err := writeSeriesTable(w, "Figure 9a: flowtime ratio vs DollyMP⁰ by clone count", "ratio",
		r.SpeedupCDF); err != nil {
		return err
	}
	tab := &metrics.Table{
		Title:   "Figure 9b: resource usage and marginal benefit by clone count",
		Columns: []string{"variant", "total usage (cluster-slots)", "jobs ≥20% faster than k−1"},
	}
	for k := 0; k <= 3; k++ {
		marginal := "-"
		if k >= 1 {
			marginal = fmt.Sprintf("%.1f%%", 100*r.FracImproved20[k-1])
		}
		tab.AddRow(dolly(k).Name(), r.TotalUsage[k], marginal)
	}
	return tab.Write(w)
}
