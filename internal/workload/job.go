// Package workload models the jobs DollyMP schedules: DAGs of phases,
// each phase a set of parallel tasks with a multi-resource demand and a
// stochastic duration (§3). It also implements the derived quantities the
// scheduler consumes — dominant share, effective processing time, critical
// path, effective volume (Eqs. 9, 14–17) — and their online updates as
// tasks finish.
package workload

import (
	"fmt"
	"math"

	"dollymp/internal/resources"
)

// JobID identifies a job.
type JobID int

// PhaseID identifies a phase within a job (index into Job.Phases).
type PhaseID int

// TaskRef names one task: job, phase, and index within the phase.
type TaskRef struct {
	Job   JobID
	Phase PhaseID
	Index int
}

// String formats the reference as j/k/l, the paper's (j, k, l) indexing.
func (r TaskRef) String() string {
	return fmt.Sprintf("j%d/p%d/t%d", r.Job, r.Phase, r.Index)
}

// Phase is one stage of a job: n parallel tasks with identical demand and
// a common duration distribution, matching the paper's observation that
// tasks within a phase have similar resource and execution properties.
type Phase struct {
	// Name is a human label ("map", "reduce", "iter-3", ...).
	Name string
	// Tasks is n_j^k, the number of parallel tasks.
	Tasks int
	// Demand is the per-task resource demand (c_j^k, m_j^k).
	Demand resources.Vector
	// MeanDuration is θ_j^k in slots; SDDuration is σ_j^k.
	MeanDuration float64
	SDDuration   float64
	// Parents lists the upstream phases P(φ_j^k); every parent must
	// complete before any task of this phase starts.
	Parents []PhaseID
}

// Job is a DAG of phases, submitted at Arrival.
type Job struct {
	ID      JobID
	Name    string
	App     string // application label ("wordcount", "pagerank", ...)
	Arrival int64  // a_j, in slots
	// Tenant is an optional submitter label ("team-a") used by edge
	// admission for per-tenant fairness and by GET /v1/jobs?tenant=
	// filtering. The scheduler itself ignores it. omitempty keeps
	// tenant-less traces byte-identical to their pre-tenant encoding.
	Tenant string `json:",omitempty"`
	Phases []Phase
}

// maxTenantLen bounds the tenant label; it is an identifier, not a
// payload, and it becomes a map key in admission policies.
const maxTenantLen = 64

// Validate checks structural soundness: at least one phase, positive task
// counts and durations, valid demands, parent references in range, and
// acyclicity.
func (j *Job) Validate() error {
	if len(j.Phases) == 0 {
		return fmt.Errorf("workload: job %d has no phases", j.ID)
	}
	if len(j.Tenant) > maxTenantLen {
		return fmt.Errorf("workload: job %d tenant label exceeds %d bytes", j.ID, maxTenantLen)
	}
	for k, p := range j.Phases {
		if p.Tasks <= 0 {
			return fmt.Errorf("workload: job %d phase %d has %d tasks", j.ID, k, p.Tasks)
		}
		if !(p.MeanDuration > 0) || math.IsInf(p.MeanDuration, 0) {
			return fmt.Errorf("workload: job %d phase %d has mean duration %v", j.ID, k, p.MeanDuration)
		}
		if p.SDDuration < 0 {
			return fmt.Errorf("workload: job %d phase %d has negative sd", j.ID, k)
		}
		if math.IsNaN(p.SDDuration) || math.IsInf(p.SDDuration, 0) {
			return fmt.Errorf("workload: job %d phase %d has non-finite sd %v", j.ID, k, p.SDDuration)
		}
		if !p.Demand.IsValid() || p.Demand.IsZero() {
			return fmt.Errorf("workload: job %d phase %d has invalid demand %v", j.ID, k, p.Demand)
		}
		for _, par := range p.Parents {
			if int(par) < 0 || int(par) >= len(j.Phases) {
				return fmt.Errorf("workload: job %d phase %d has out-of-range parent %d", j.ID, k, par)
			}
			if int(par) == k {
				return fmt.Errorf("workload: job %d phase %d is its own parent", j.ID, k)
			}
		}
	}
	return j.checkAcyclic()
}

// checkAcyclic is TopoOrder's verdict without its order. Up to 64
// phases it allocates nothing: a phase is released once every parent
// is, one bit each, and a pass that releases no phase while some remain
// has found a cycle. Parent indices must already be in range.
func (j *Job) checkAcyclic() error {
	n := len(j.Phases)
	if n > 64 {
		_, err := j.TopoOrder()
		return err
	}
	var released uint64
	for left := n; left > 0; {
		before := left
		for k := range j.Phases {
			if released&(1<<uint(k)) != 0 {
				continue
			}
			ready := true
			for _, par := range j.Phases[k].Parents {
				if released&(1<<uint(par)) == 0 {
					ready = false
					break
				}
			}
			if ready {
				released |= 1 << uint(k)
				left--
			}
		}
		if left == before {
			return fmt.Errorf("workload: job %d DAG has a cycle", j.ID)
		}
	}
	return nil
}

// TopoOrder returns the phases in a topological order, or an error if the
// DAG has a cycle.
func (j *Job) TopoOrder() ([]PhaseID, error) {
	n := len(j.Phases)
	indeg := make([]int, n)
	children := make([][]PhaseID, n)
	for k, p := range j.Phases {
		for _, par := range p.Parents {
			indeg[k]++
			children[par] = append(children[par], PhaseID(k))
		}
	}
	queue := make([]PhaseID, 0, n)
	for k := 0; k < n; k++ {
		if indeg[k] == 0 {
			queue = append(queue, PhaseID(k))
		}
	}
	order := make([]PhaseID, 0, n)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		order = append(order, k)
		for _, ch := range children[k] {
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workload: job %d DAG has a cycle", j.ID)
	}
	return order, nil
}

// EffectiveDuration returns e_j^k = θ_j^k + r·σ_j^k, the paper's
// variance-penalized processing time (§5); r defaults to 1.5 in the
// evaluation.
func (p *Phase) EffectiveDuration(r float64) float64 {
	return p.MeanDuration + r*p.SDDuration
}

// DominantShare returns d_j^k per Eq. (15).
func (p *Phase) DominantShare(total resources.Vector) float64 {
	return p.Demand.DominantShare(total)
}

// TotalTasks returns the job's task count across phases.
func (j *Job) TotalTasks() int {
	n := 0
	for _, p := range j.Phases {
		n += p.Tasks
	}
	return n
}

// EffectiveVolume implements Eq. (14):
//
//	v_j = Σ_k n_j^k · e_j^k · d_j^k
//
// over all phases, where e uses the variance factor r and d is the
// dominant share against the given total capacity.
func (j *Job) EffectiveVolume(total resources.Vector, r float64) float64 {
	v := 0.0
	for k := range j.Phases {
		p := &j.Phases[k]
		v += float64(p.Tasks) * p.EffectiveDuration(r) * p.DominantShare(total)
	}
	return v
}

// CriticalPathLength implements the e_j of Eq. (14): the longest chain of
// effective durations through the DAG.
func (j *Job) CriticalPathLength(r float64) float64 {
	order, err := j.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make([]float64, len(j.Phases))
	longest := 0.0
	for _, k := range order {
		p := &j.Phases[k]
		start := 0.0
		for _, par := range p.Parents {
			if finish[par] > start {
				start = finish[par]
			}
		}
		finish[k] = start + p.EffectiveDuration(r)
		if finish[k] > longest {
			longest = finish[k]
		}
	}
	return longest
}

// Chain builds a purely sequential job: phase i+1 depends on phase i.
// Convenient for MapReduce-style jobs and tests.
func Chain(id JobID, name, app string, arrival int64, phases []Phase) *Job {
	for i := range phases {
		if i > 0 {
			phases[i].Parents = []PhaseID{PhaseID(i - 1)}
		} else {
			phases[i].Parents = nil
		}
	}
	return &Job{ID: id, Name: name, App: app, Arrival: arrival, Phases: phases}
}

// InputRack returns the rack holding a root-phase task's input data —
// the HDFS-block placement the paper's data-locality preferences refer
// to. It is a deterministic hash of the task reference so every
// component (engine cost model, AM binding) agrees on it. racks must be
// positive.
func InputRack(ref TaskRef, racks int) int {
	if racks <= 0 {
		panic("workload: InputRack needs a positive rack count")
	}
	h := uint64(ref.Job)*0x9e3779b97f4a7c15 ^ uint64(ref.Phase)*0xd1342543de82ef95 ^ uint64(ref.Index)*0xbf58476d1ce4e5b9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(racks))
}

// SingleTask builds a one-phase one-task job, the shape §4.1's analysis
// and the motivating example of §2 use.
func SingleTask(id JobID, arrival int64, demand resources.Vector, mean, sd float64) *Job {
	return &Job{
		ID:      id,
		Name:    fmt.Sprintf("job-%d", id),
		Arrival: arrival,
		Phases: []Phase{{
			Name:         "task",
			Tasks:        1,
			Demand:       demand,
			MeanDuration: mean,
			SDDuration:   sd,
		}},
	}
}
