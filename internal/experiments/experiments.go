// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 Fig. 2, §6.2 Figs. 1/4–7, §6.3 Figs. 8–11 and the
// scheduling-overhead measurement, plus the §4.1 cloning analysis and a
// Theorem-1 competitive-ratio check). Each FigureN function runs the
// relevant schedulers over the relevant workload and returns the same
// rows/series the paper reports. All lists them once; dollymp-bench and
// the root package's BenchmarkFigures run that list.
//
// Every experiment is a function of its Scale alone: the parameters the
// paper fixes (job counts, arrival gaps, loads, the swept values) are
// constants at their one point of use, named in the function's doc with
// their paper section, and the Scale only multiplies job counts and
// picks the fleet and seed. HeavyLoad also takes the application, since
// Figs. 5–7 run each of the two.
package experiments

import (
	"fmt"
	"io"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// Scale sizes an experiment. Paper() matches the evaluation's job counts;
// Quick() shrinks everything so the full suite runs in seconds (the
// shapes — who wins, by what factor — are stable across scales).
type Scale struct {
	// JobFactor multiplies the paper's job counts (1.0 = paper).
	JobFactor float64
	// Fleet is the server count for the trace-driven simulations. The
	// paper simulates 30K servers; the default keeps runs tractable
	// while preserving heterogeneity (10%/30%/60% machine classes).
	Fleet int
	// Seed drives workload generation and the simulator.
	Seed uint64
}

// Paper returns the evaluation-scale configuration.
func Paper() Scale { return Scale{JobFactor: 1, Fleet: 600, Seed: 42} }

// Quick returns a reduced configuration for fast benchmarks and tests.
func Quick() Scale { return Scale{JobFactor: 0.1, Fleet: 120, Seed: 42} }

func (s Scale) jobs(paperCount int) int {
	n := int(float64(paperCount)*s.JobFactor + 0.5)
	if n < 4 {
		n = 4
	}
	return n
}

// run executes one scheduler over one workload on a fresh copy of the
// given fleet builder: a single-cell sweep, so every replication in the
// package goes through the same pool substrate.
func run(fleet func() *cluster.Cluster, jobs []*workload.Job, s sched.Scheduler, seed uint64) (*sim.Result, error) {
	outs, err := runAll(fleet, jobs, []sched.Scheduler{s}, seed)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// writeSeriesTable validates the shared quantile grid and renders one
// CDF table; the Write methods of every figure funnel through it.
func writeSeriesTable(w io.Writer, title, xlabel string, series []metrics.Series) error {
	tab, err := metrics.SeriesTable(title, xlabel, series)
	if err != nil {
		return err
	}
	return tab.Write(w)
}

// dolly builds the DollyMP^k variant with paper defaults.
func dolly(k int) *core.Scheduler {
	return core.MustNew(core.WithClones(k))
}

// heavyGap is §6.2.2's inter-arrival gap: 4 slots ≈ 20 s.
const heavyGap = 4

// heavyPagerank builds the §6.2.2 PageRank experiment workload: n jobs,
// sizes alternating 10 GB / 1 GB (the suite's PageRank mix), heavyGap
// apart.
func heavyPagerank(n int, seed uint64) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, n)
	for i := 0; i < n; i++ {
		size := 10.0
		if i%2 == 1 {
			size = 1.0
		}
		jobs[i] = trace.PageRank(workload.JobID(i), int64(i)*heavyGap, size, rng.Split(uint64(i)))
	}
	return jobs
}

// heavyArrival spaces trace.Homogeneous's jobs heavyGap apart, as
// heavyPagerank spaces its own.
var heavyArrival = trace.Arrival{Kind: trace.FixedInterval, MeanGap: heavyGap}

// googleWorkload builds the §6.3 trace-driven workload and rescales its
// arrival times so the fleet runs at the target load (expected work
// arriving per slot divided by total capacity).
func googleWorkload(n int, fleet *cluster.Cluster, targetLoad float64, seed uint64) []*workload.Job {
	jobs := trace.DefaultGoogleLike(n, 1, seed).Generate()
	total := fleet.Total()
	work := 0.0 // dominant-share × slots across all jobs
	var span int64
	for _, j := range jobs {
		work += j.EffectiveVolume(total, 0)
		if j.Arrival > span {
			span = j.Arrival
		}
	}
	if span == 0 || targetLoad <= 0 {
		return jobs
	}
	// Required span so that work/span = targetLoad (capacity = 1
	// dominant-share unit per slot).
	wantSpan := work / targetLoad
	factor := wantSpan / float64(span)
	for _, j := range jobs {
		j.Arrival = int64(float64(j.Arrival) * factor)
	}
	return jobs
}

// traceWorkload returns a builder of the scale's heterogeneous fleet
// and the §6.3 trace-driven workload on it: paperJobs jobs scaled by
// JobFactor, arriving at the target load.
func (s Scale) traceWorkload(paperJobs int, load float64) (func() *cluster.Cluster, []*workload.Job) {
	fleet := func() *cluster.Cluster { return cluster.LargeFleet(s.Fleet, s.Seed) }
	return fleet, googleWorkload(s.jobs(paperJobs), fleet(), load, s.Seed)
}

// pairedFlowtimes extracts the flowtimes of jobs completed by both runs,
// paired by job ID, for ratio CDFs (Figs. 8, 9, 11).
func pairedFlowtimes(a, b *sim.Result) (fa, fb []float64) {
	byB := b.ByJobID()
	for _, j := range a.Jobs {
		other, ok := byB[j.ID]
		if !ok {
			continue
		}
		fa = append(fa, float64(j.Flowtime))
		fb = append(fb, float64(other.Flowtime))
	}
	return fa, fb
}

// pairedNormalizedUsage returns each job's normalized resource usage in
// job-ID pairing with the other run, for Figs. 8b/11b.
func pairedNormalizedUsage(a, b *sim.Result, fleet *cluster.Cluster) (ua, ub []float64) {
	total := fleet.Total()
	byB := b.ByJobID()
	for _, j := range a.Jobs {
		other, ok := byB[j.ID]
		if !ok {
			continue
		}
		ua = append(ua, j.Usage.Normalized(total))
		ub = append(ub, other.Usage.Normalized(total))
	}
	return ua, ub
}

func checkJobs(res *sim.Result, want int, label string) error {
	if len(res.Jobs) != want {
		return fmt.Errorf("experiments: %s completed %d/%d jobs", label, len(res.Jobs), want)
	}
	return nil
}
