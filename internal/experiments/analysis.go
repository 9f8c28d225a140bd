package experiments

import (
	"fmt"
	"io"
	"math"

	"dollymp/internal/core"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// CloningAnalysisResult evaluates the closed-form §4.1 example: N
// single-task jobs arrive at time zero on a unit cluster, job j needing
// 1/2^j of each resource and unit expected time, under three schemes:
//
//	flow₁ — schedule everything, one clone for job N:
//	        N − 1 + 1/h(2)
//	flow₂ — maximal cloning, jobs serialized largest-last:
//	        Σ_j j/h(2^j)
//	flow₃ — two copies each, smallest job first:
//	        (N + 1)/h(2) (upper bound)
//
// The paper's conclusion: flow₃ < flow₁ < flow₂ once N is large enough —
// a few clones with small-job priority beat both no-cloning and
// aggressive cloning.
type CloningAnalysisResult struct {
	N     int
	Alpha float64
	Flow1 float64
	Flow2 float64
	Flow3 float64
}

// CloningAnalysis evaluates the three schemes for N = 10 jobs and
// Pareto shape α = 2, where both of §4.1's conditions hold:
// h_j(2^j) < j for j ≥ α/(α−1), and h(2) > N/(N−1) for N > 2α−1.
func CloningAnalysis() *CloningAnalysisResult {
	const (
		n     = 10
		alpha = 2.0
	)
	h := func(r int) float64 { return stats.ParetoSpeedup(alpha, r) }
	flow1 := float64(n) - 1 + 1/h(2)
	flow2 := 0.0
	for j := 1; j <= n; j++ {
		r := math.Pow(2, float64(j))
		// h at very large r approaches α/(α−1); clamp the copy count
		// to avoid integer overflow for big j.
		copies := int(math.Min(r, 1<<30))
		flow2 += float64(j) / h(copies)
	}
	flow3 := float64(n+1) / h(2)
	return &CloningAnalysisResult{N: n, Alpha: alpha, Flow1: flow1, Flow2: flow2, Flow3: flow3}
}

// Ordered reports whether flow₃ < flow₁ < flow₂ holds.
func (r *CloningAnalysisResult) Ordered() bool {
	return r.Flow3 < r.Flow1 && r.Flow1 < r.Flow2
}

// Write renders the analysis.
func (r *CloningAnalysisResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"§4.1 cloning analysis (N=%d, α=%.2f): flow1=%.2f flow2=%.2f flow3=%.2f, flow3<flow1<flow2: %v\n",
		r.N, r.Alpha, r.Flow1, r.Flow2, r.Flow3, r.Ordered())
	return err
}

// CompetitiveRatioResult validates Theorem 1 and Corollary 4.1
// empirically: on random transient instances (all arrivals at zero, one
// unit-capacity server), Algorithm 1's schedule stays within the 6R
// bound of a lower bound on the optimal flowtime, with and without
// cloning.
type CompetitiveRatioResult struct {
	Instances int
	// WorstRatio and MeanRatio are for the no-cloning schedule
	// (Theorem 1, R = 1).
	WorstRatio float64
	MeanRatio  float64
	// WorstRatioCloned and CloneImprovedFrac cover Corollary 4.1's
	// clone rule under a Pareto(α=2) speedup: the worst ratio against
	// the same lower bound (adjusted for R = sup h), and the fraction
	// of instances where cloning strictly reduced total flowtime.
	WorstRatioCloned  float64
	CloneImprovedFrac float64
}

// CompetitiveRatio runs 200 random transient instances of 2 to 10
// single-task jobs each, drawn from the scale's seed, using
// core.TransientSchedule (the exact Algorithm 1 admission loop).
//
// The lower bound (core.TransientLowerBound): at most one unit of volume
// completes per time unit, and no job beats its own duration under the
// best possible speedup. Both bounds hold for every schedule, OPT
// included.
func CompetitiveRatio(sc Scale) (*CompetitiveRatioResult, error) {
	const (
		instances = 200
		maxJobs   = 10
		alpha     = 2.0
	)
	maxSpeed := alpha / (alpha - 1)
	h := func(r int) float64 { return stats.ParetoSpeedup(alpha, r) }

	rng := stats.NewRNG(sc.Seed)
	res := &CompetitiveRatioResult{Instances: instances}
	var sum float64
	improved := 0
	for it := 0; it < instances; it++ {
		n := 2 + rng.Intn(maxJobs-1)
		jobs := make([]core.TransientJob, n)
		for i := range jobs {
			jobs[i] = core.TransientJob{
				ID:       workload.JobID(i),
				Duration: 1 + rng.Range(0, 30),
				Dominant: rng.Range(0.05, 1.0),
				Speedup:  h,
			}
		}
		plainJobs := make([]core.TransientJob, n)
		copy(plainJobs, jobs)
		for i := range plainJobs {
			plainJobs[i].Speedup = nil
		}

		plain, err := core.TransientSchedule(plainJobs, core.NoClones)
		if err != nil {
			return nil, err
		}
		cloned, err := core.TransientSchedule(jobs, core.CorollaryClones)
		if err != nil {
			return nil, err
		}

		lb := core.TransientLowerBound(plainJobs, 1)
		ratio := plain.TotalFlowtime / lb
		if ratio > res.WorstRatio {
			res.WorstRatio = ratio
		}
		sum += ratio

		lbCloned := core.TransientLowerBound(jobs, maxSpeed)
		if rc := cloned.TotalFlowtime / lbCloned; rc > res.WorstRatioCloned {
			res.WorstRatioCloned = rc
		}
		if cloned.TotalFlowtime < plain.TotalFlowtime-1e-9 {
			improved++
		}
	}
	res.MeanRatio = sum / float64(instances)
	res.CloneImprovedFrac = float64(improved) / float64(instances)
	return res, nil
}

// Write renders the validation.
func (r *CompetitiveRatioResult) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"Theorem 1 check: %d random transient instances, worst flowtime/LB = %.2f, mean = %.2f (bound 6)\n"+
			"Corollary 4.1 check: worst cloned ratio = %.2f (bound 6R = 12 at α=2); cloning improved %.0f%% of instances\n",
		r.Instances, r.WorstRatio, r.MeanRatio, r.WorstRatioCloned, 100*r.CloneImprovedFrac)
	return err
}
