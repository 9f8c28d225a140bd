package trace

import (
	"fmt"

	"dollymp/internal/resources"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// Arrival describes how job arrival times are laid out.
type Arrival struct {
	// Kind selects the process.
	Kind ArrivalKind
	// MeanGap is the mean inter-arrival gap in slots.
	MeanGap float64
}

// ArrivalKind enumerates arrival processes.
type ArrivalKind int

// Supported arrival processes.
const (
	// FixedInterval spaces arrivals exactly MeanGap apart, the "around
	// 200 seconds" / "around 20 seconds" setups of §6.2.
	FixedInterval ArrivalKind = iota
	// Poisson draws exponential gaps with mean MeanGap.
	Poisson
	// AllAtZero submits every job at slot zero (the transient setting
	// of §4).
	AllAtZero
)

// next returns the arrival slot after prev.
func (a Arrival) next(prev int64, rng *stats.RNG) int64 {
	switch a.Kind {
	case FixedInterval:
		gap := int64(a.MeanGap + 0.5)
		if gap < 1 {
			gap = 1
		}
		return prev + gap
	case Poisson:
		gap := int64(rng.Exp(a.MeanGap) + 0.5)
		if gap < 1 {
			gap = 1
		}
		return prev + gap
	case AllAtZero:
		return 0
	default:
		panic(fmt.Sprintf("trace: unknown arrival kind %d", a.Kind))
	}
}

// MixedDeployment builds the §6.2 deployment workload: n jobs, half
// PageRank (half of those 10 GB inputs, half 1 GB) and half WordCount
// (all 10 GB), with the given arrival process. Deterministic per seed.
func MixedDeployment(n int, arrival Arrival, seed uint64) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, 0, n)
	var t int64
	for i := 0; i < n; i++ {
		if i > 0 || arrival.Kind == FixedInterval || arrival.Kind == Poisson {
			t = arrival.next(t, rng)
		}
		var j *workload.Job
		switch {
		case i%2 == 0: // WordCount, 10 GB
			j = WordCount(workload.JobID(i), t, 10, rng.Split(uint64(i)))
		case i%4 == 1: // PageRank, 10 GB
			j = PageRank(workload.JobID(i), t, 10, rng.Split(uint64(i)))
		default: // PageRank, ~1 GB
			j = PageRank(workload.JobID(i), t, 1, rng.Split(uint64(i)))
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// Homogeneous builds n jobs of a single application ("wordcount" or
// "pagerank"), the §6.2.2 heavy-load experiments (500 jobs, ~20 s gaps).
func Homogeneous(app string, n int, inputGB float64, arrival Arrival, seed uint64) ([]*workload.Job, error) {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, 0, n)
	var t int64
	for i := 0; i < n; i++ {
		if i > 0 {
			t = arrival.next(t, rng)
		}
		var j *workload.Job
		switch app {
		case "wordcount":
			j = WordCount(workload.JobID(i), t, inputGB, rng.Split(uint64(i)))
		case "pagerank":
			j = PageRank(workload.JobID(i), t, inputGB, rng.Split(uint64(i)))
		default:
			return nil, fmt.Errorf("trace: unknown application %q", app)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// GoogleLike describes the synthetic Google-trace mix of §6.3.
type GoogleLike struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// MeanGap is the mean (exponential) inter-arrival gap in slots.
	MeanGap float64
	// Seed makes the trace reproducible.
	Seed uint64
	// StragglerPhaseFrac is the fraction of phases that contain
	// stragglers (0.70 in the traces the paper cites).
	StragglerPhaseFrac float64
}

// DefaultGoogleLike returns the §6.3 statistics.
func DefaultGoogleLike(jobs int, meanGap float64, seed uint64) GoogleLike {
	return GoogleLike{
		Jobs:               jobs,
		MeanGap:            meanGap,
		Seed:               seed,
		StragglerPhaseFrac: 0.70,
	}
}

// Generate produces the job list. Job sizes (task counts) are heavy-tail
// distributed: 95% small jobs per the Google trace analysis the paper
// cites, with a tail of large jobs. Straggler-prone phases get a high
// duration SD so the fitted Pareto is heavy-tailed (small α); stable
// phases get a low SD.
func (g GoogleLike) Generate() []*workload.Job {
	jobs := make([]*workload.Job, 0, g.Jobs)
	g.Emit(func(j *workload.Job) error { // error-free emit never fails
		jobs = append(jobs, j)
		return nil
	})
	return jobs
}

// Emit generates the same jobs as Generate — bit-for-bit, same seed
// discipline — but hands each to emit as it is drawn instead of
// materializing the list, so a multi-million-job trace can stream to
// disk in O(1) memory. Generation stops at the first emit error, which
// is returned.
//
// The jobs' records are cut from blocks local to the call (see
// jobBlocks): one retained job keeps its blocks alive, and a job's
// Phases and Parents are three-index slices, so an append to one job
// never writes into another's.
func (g GoogleLike) Emit(emit func(*workload.Job) error) error {
	rng := stats.NewRNG(g.Seed)
	arr := Arrival{Kind: Poisson, MeanGap: g.MeanGap}
	var blocks jobBlocks
	var t int64
	for i := 0; i < g.Jobs; i++ {
		if i > 0 {
			t = arr.next(t, rng)
		}
		jrng := rng.Split(uint64(i))
		if err := emit(g.job(&blocks, workload.JobID(i), t, jrng)); err != nil {
			return err
		}
	}
	return nil
}

// blockJobs is how many jobs one generator block is sized for: a job
// block holds that many jobs, a phase block that many of two phases
// each and a parents block that many of one parent each — a
// Google-like job's mean — so the three run out at about the same
// pace.
const blockJobs = 128

// jobBlocks is what remains of the current block of each record kind.
type jobBlocks struct {
	jobs    []workload.Job
	phases  []workload.Phase
	parents []workload.PhaseID
}

// cut returns the first n records of *block as a three-index slice,
// starting a fresh block of size records when *block holds fewer.
func cut[T any](block *[]T, n, size int) []T {
	if len(*block) < n {
		*block = make([]T, size)
	}
	s := (*block)[:n:n]
	*block = (*block)[n:]
	return s
}

// phaseNames names a Google-like job's phases, at most three.
var phaseNames = [...]string{"phase-0", "phase-1", "phase-2"}

func (g GoogleLike) job(blocks *jobBlocks, id workload.JobID, arrival int64, rng *stats.RNG) *workload.Job {
	// Heavy-tailed job size: Pareto with α≈1.8 truncated to [1, 400].
	sizeDist := stats.Pareto{Alpha: 1.8, Xm: 2}
	nTasks := int(sizeDist.Sample(rng))
	if nTasks < 1 {
		nTasks = 1
	}
	if nTasks > 400 {
		nTasks = 400
	}
	// 1–3 phases, sequential (the trace replay of §6.3 treats DAGs as
	// phase chains; Graphene-style irregular DAGs are out of scope).
	nPhases := 1 + rng.Intn(len(phaseNames))
	phases := cut(&blocks.phases, nPhases, 2*blockJobs)[:0]
	for k := 0; k < nPhases; k++ {
		tasks := nTasks
		if k > 0 {
			tasks = max(1, nTasks/(1+rng.Intn(4)))
		}
		// Demands follow the Google-trace marginals: most tasks are
		// small (≤1 core, ≤2 GiB), a few are large.
		var demand resources.Vector
		switch {
		case rng.Bool(0.70):
			demand = resources.Vec(500+int64(rng.Intn(501)), 1024+int64(rng.Intn(1025)))
		case rng.Bool(0.67):
			demand = resources.Vec(1000+int64(rng.Intn(1001)), 2048+int64(rng.Intn(2049)))
		default:
			demand = resources.Vec(2000+int64(rng.Intn(2001)), 4096+int64(rng.Intn(4097)))
		}
		mean := rng.Range(4, 24) // 20 s – 2 min at 5 s slots
		var sd float64
		if rng.Bool(g.StragglerPhaseFrac) {
			// Straggler-prone phase: heavy tail. CV in [1, 2.2] puts
			// the fitted Pareto α in ≈[2.0, 2.4]. The engine's draws
			// are uncapped, so a rare one exceeds 20× the mean.
			sd = mean * rng.Range(1.0, 2.2)
		} else {
			sd = mean * rng.Range(0.1, 0.35)
		}
		phases = append(phases, workload.Phase{
			Name:         phaseNames[k],
			Tasks:        tasks,
			Demand:       demand,
			MeanDuration: mean,
			SDDuration:   sd,
		})
	}
	workload.LinkChain(phases, cut(&blocks.parents, nPhases-1, blockJobs))
	j := &cut(&blocks.jobs, 1, blockJobs)[0]
	*j = workload.Job{
		ID:      id,
		Name:    jobName("g", id),
		App:     "google",
		Arrival: arrival,
		Phases:  phases,
	}
	return j
}
