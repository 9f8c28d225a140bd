package core

import (
	"fmt"
	"math"
	"sort"

	"dollymp/internal/knapsack"
	"dollymp/internal/workload"
)

// The transient setting of §4.2: all jobs arrive at time zero, each job
// is a single task, and the cluster is one server with unit capacity in
// every dimension. TransientSchedule implements Algorithm 1 end to end —
// knapsack priorities (Steps 2–11) followed by the admission loop with
// cloning (Steps 12–16) — plus the refined clone rule of Corollary 4.1.

// TransientJob is one single-task job.
type TransientJob struct {
	ID workload.JobID
	// Dominant is the job's dominant share per copy (fraction of the
	// unit cluster), in (0, 1].
	Dominant float64
	// Duration is the expected processing time e_j.
	Duration float64
	// Speedup is h(r), the expected speedup with r concurrent copies;
	// nil means cloning never helps (h ≡ 1).
	Speedup func(r int) float64
}

// ClonePolicy selects Algorithm 1's cloning behaviour.
type ClonePolicy int

// Available policies.
const (
	// NoClones runs Steps 12–13 only (the Theorem 1 setting).
	NoClones ClonePolicy = iota
	// HeadClone is Step 15 verbatim: when the next job cannot be
	// admitted, the job just admitted receives one extra clone if it
	// fits.
	HeadClone
	// CorollaryClones applies Corollary 4.1: job j receives r_j − 1
	// clones, r_j = min{r : 2^(p_j)·h_j(r) ≥ e_j}, when they fit.
	CorollaryClones
)

// TransientResult is the outcome of a transient schedule.
type TransientResult struct {
	// Completion[id] is the job's completion time (= flowtime, since
	// all arrivals are at zero).
	Completion map[workload.JobID]float64
	// TotalFlowtime is Σ completion times.
	TotalFlowtime float64
	// Clones[id] counts extra copies granted to the job.
	Clones map[workload.JobID]int
}

// TransientSchedule runs Algorithm 1 over the jobs and returns the
// resulting schedule metrics.
func TransientSchedule(jobs []TransientJob, policy ClonePolicy) (*TransientResult, error) {
	for _, j := range jobs {
		if !(j.Dominant > 0) || j.Dominant > 1 {
			return nil, fmt.Errorf("core: job %d dominant share %v out of (0,1]", j.ID, j.Dominant)
		}
		if !(j.Duration > 0) {
			return nil, fmt.Errorf("core: job %d duration %v must be positive", j.ID, j.Duration)
		}
	}
	infos := make([]JobInfo, len(jobs))
	byID := make(map[workload.JobID]TransientJob, len(jobs))
	for i, j := range jobs {
		infos[i] = JobInfo{
			ID:       j.ID,
			Volume:   j.Duration * j.Dominant,
			Time:     j.Duration,
			Dominant: j.Dominant,
		}
		byID[j.ID] = j
	}
	var prios map[workload.JobID]int
	copiesFor := map[workload.JobID]int{}
	if policy == CorollaryClones {
		prios, copiesFor = prioritiesWithClones(jobs, classCount(infos))
	} else {
		prios = Priorities(infos)
	}
	order := SortByPriority(infos, prios)

	res := &TransientResult{
		Completion: make(map[workload.JobID]float64, len(jobs)),
		Clones:     make(map[workload.JobID]int, len(jobs)),
	}

	type running struct {
		id     workload.JobID
		finish float64
		share  float64 // dominant × copies
	}
	var active []running
	var now, used float64
	queue := append([]workload.JobID(nil), order...)

	h := func(j TransientJob, copies int) float64 {
		if j.Speedup == nil || copies <= 1 {
			return 1
		}
		return j.Speedup(copies)
	}
	admit := func(id workload.JobID, copies int) {
		j := byID[id]
		share := j.Dominant * float64(copies)
		active = append(active, running{
			id:     id,
			finish: now + j.Duration/h(j, copies),
			share:  share,
		})
		used += share
		res.Clones[id] = copies - 1
	}

	for len(queue) > 0 || len(active) > 0 {
		// Steps 12–16: admit in priority order; head-of-line blocking
		// is intentional (priority is strict across classes).
		for len(queue) > 0 {
			id := queue[0]
			j := byID[id]
			copies := 1
			if policy == CorollaryClones {
				if c, ok := copiesFor[id]; ok && c > 1 {
					copies = c
				}
			}
			// Shed clones that don't fit rather than blocking.
			for copies > 1 && used+j.Dominant*float64(copies) > 1+1e-12 {
				copies--
			}
			if used+j.Dominant*float64(copies) > 1+1e-12 {
				// Step 15: the previously admitted job gets one extra
				// clone if the spare capacity allows.
				if policy == HeadClone && len(active) > 0 {
					last := &active[len(active)-1]
					lj := byID[last.id]
					if res.Clones[last.id] == 0 && used+lj.Dominant <= 1+1e-12 {
						// One extra copy: the remaining work speeds up
						// by h(2)/h(1).
						used += lj.Dominant
						last.share += lj.Dominant
						last.finish = now + (last.finish-now)/h(lj, 2)
						res.Clones[last.id] = 1
					}
				}
				break
			}
			admit(id, copies)
			queue = queue[1:]
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("core: transient schedule stuck with %d queued jobs", len(queue))
		}
		// Advance to the earliest completion.
		best := 0
		for i := 1; i < len(active); i++ {
			if active[i].finish < active[best].finish {
				best = i
			}
		}
		now = active[best].finish
		used -= active[best].share
		res.Completion[active[best].id] = now
		res.TotalFlowtime += now
		active = append(active[:best], active[best+1:]...)
	}
	return res, nil
}

// prioritiesWithClones implements Corollary 4.1's refinement of
// Algorithm 1: at level l a job may qualify for class l even with
// θ_j > 2^l, provided r_j = min{r : 2^l·h_j(r) ≥ θ_j} copies exist and
// their combined volume r_j·d_j·θ_j/h_j(r_j) packs within the budget.
// Cloning thus pulls straggler-prone jobs into earlier deadline classes,
// which is what upgrades the competitive ratio from 6R to 6. g is
// Algorithm 1's class count over the jobs without cloning.
func prioritiesWithClones(jobs []TransientJob, g int) (map[workload.JobID]int, map[workload.JobID]int) {
	const maxCopies = 8
	prios := make(map[workload.JobID]int, len(jobs))
	copiesFor := make(map[workload.JobID]int, len(jobs))

	rAt := func(j TransientJob, deadline float64) (int, bool) {
		if j.Duration <= deadline {
			return 1, true
		}
		if j.Speedup == nil {
			return 0, false
		}
		for r := 2; r <= maxCopies; r++ {
			if deadline*j.Speedup(r) >= j.Duration {
				return r, true
			}
		}
		return 0, false
	}

	for l := 1; l <= g; l++ {
		deadline := math.Pow(2, float64(l))
		var items []knapsack.Item
		idx := make(map[int]workload.JobID)
		copiesAt := make(map[int]int)
		for i, j := range jobs {
			r, ok := rAt(j, deadline)
			if !ok {
				continue
			}
			// Volume under r copies: r·d·(θ/h(r)) — the resource-time
			// product the cloned job actually occupies.
			dur := j.Duration
			if r > 1 {
				dur = j.Duration / j.Speedup(r)
			}
			items = append(items, knapsack.Item{
				ID:     i,
				Weight: float64(r) * j.Dominant * dur,
			})
			idx[i] = j.ID
			copiesAt[i] = r
		}
		for _, id := range knapsack.MaxCardinality(items, deadline) {
			jid := idx[id]
			if _, done := prios[jid]; !done {
				prios[jid] = l
				copiesFor[jid] = copiesAt[id]
			}
		}
	}
	for _, j := range jobs {
		if _, ok := prios[j.ID]; !ok {
			prios[j.ID] = g + 1
			copiesFor[j.ID] = 1
		}
	}
	return prios, copiesFor
}

// TransientLowerBound returns a valid lower bound on the optimal total
// flowtime for a transient instance: at most one unit of volume completes
// per time unit (volume bound) and no job beats its own duration under
// the best possible speedup bounded by R (duration bound).
func TransientLowerBound(jobs []TransientJob, maxSpeedup float64) float64 {
	vols := make([]float64, len(jobs))
	durSum := 0.0
	for i, j := range jobs {
		vols[i] = j.Duration * j.Dominant
		durSum += j.Duration / maxSpeedup
	}
	sort.Float64s(vols)
	volBound, cum := 0.0, 0.0
	for _, v := range vols {
		cum += v
		volBound += cum
	}
	if durSum > volBound {
		return durSum
	}
	return volBound
}
