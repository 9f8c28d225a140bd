package stats

import (
	"fmt"
	"math"
)

// Pareto is the Type-I Pareto distribution of Eq. (2):
//
//	Pr{Θ > x} = (xm/x)^α  for x ≥ xm.
//
// The paper fits this distribution to each phase's task-duration mean and
// standard deviation and derives the cloning speedup function from it.
type Pareto struct {
	Alpha float64 // shape α (> 1 for finite mean)
	Xm    float64 // scale x_m (> 0), the minimum value
}

// FitPareto fits a Type-I Pareto to a given mean and standard deviation by
// moment matching. For Pareto, CV² = Var/Mean² = 1/(α(α−2)), hence
// α = 1 + sqrt(1 + 1/CV²), and x_m = mean·(α−1)/α.
//
// A zero or negative sd degenerates to a near-deterministic distribution
// (large α). The mean must be positive.
func FitPareto(mean, sd float64) (Pareto, error) {
	if !(mean > 0) {
		return Pareto{}, fmt.Errorf("stats: FitPareto requires positive mean, got %v", mean)
	}
	const maxAlpha = 1e6
	if sd <= 0 {
		return Pareto{Alpha: maxAlpha, Xm: mean * (maxAlpha - 1) / maxAlpha}, nil
	}
	cv2 := (sd / mean) * (sd / mean)
	alpha := 1 + math.Sqrt(1+1/cv2)
	xm := mean * (alpha - 1) / alpha
	return Pareto{Alpha: alpha, Xm: xm}, nil
}

// Mean returns the distribution mean (∞ if α ≤ 1).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var returns the variance (∞ if α ≤ 2).
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return p.Xm * p.Xm * p.Alpha / ((p.Alpha - 1) * (p.Alpha - 1) * (p.Alpha - 2))
}

// SD returns the standard deviation.
func (p Pareto) SD() float64 { return math.Sqrt(p.Var()) }

// Sample draws one variate by inversion.
func (p Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Speedup implements Eq. (3): the expected speedup from running r
// simultaneous copies of a Pareto(α)-distributed task,
//
//	h(r) = (α − 1/r)/(α − 1) = 1 + (1 − 1/r)/(α − 1).
//
// h(1) = 1; h is strictly increasing and concave in r, the two properties
// the paper's analysis relies on. r must be ≥ 1.
func (p Pareto) Speedup(r int) float64 {
	return ParetoSpeedup(p.Alpha, r)
}

// ParetoSpeedup is Speedup for a bare shape parameter.
func ParetoSpeedup(alpha float64, r int) float64 {
	if r < 1 {
		panic("stats: speedup requires r >= 1")
	}
	if alpha <= 1 {
		// Degenerate heavy tail: cap so callers never divide by zero.
		alpha = 1 + 1e-9
	}
	return (alpha - 1/float64(r)) / (alpha - 1)
}
