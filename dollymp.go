// Package dollymp is the public API of the DollyMP reproduction: a
// multi-resource cluster scheduler with task cloning (Xu, Liu, Lau —
// ICPP '22) together with the simulation substrate, baseline schedulers
// and workload generators its evaluation needs.
//
// Quick start:
//
//	fleet := dollymp.Testbed30()
//	jobs := dollymp.MixedWorkload(100, 40, 1)
//	sched, _ := dollymp.NewScheduler(dollymp.KindDollyMP2)
//	res, err := dollymp.Simulate(dollymp.SimConfig{
//	    Cluster: fleet, Jobs: jobs, Scheduler: sched, Seed: 1,
//	})
//
// The exported names are aliases of the internal implementation packages,
// so the full method sets are available through them.
package dollymp

import (
	"fmt"
	"strings"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/estimate"
	"dollymp/internal/resources"
	"dollymp/internal/scenario"
	"dollymp/internal/sched"
	"dollymp/internal/sched/builtin"
	"dollymp/internal/sim"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// Core model types.
type (
	// Resources is a CPU/memory demand or capacity vector.
	Resources = resources.Vector
	// Cluster is a heterogeneous server fleet.
	Cluster = cluster.Cluster
	// ServerSpec describes one server for NewCluster.
	ServerSpec = cluster.Spec
	// Job is a DAG of phases.
	Job = workload.Job
	// JobID identifies a job across the simulator and the service.
	JobID = workload.JobID
	// Phase is one stage of a job.
	Phase = workload.Phase
	// Scheduler is any scheduling policy the simulator can drive.
	Scheduler = sched.Scheduler
	// SimConfig configures a simulation run. RecordTrace keeps the copy
	// events VerifyTrace certifies in Result.Trace; Observe is the
	// engine's one event seam, called synchronously at every arrival,
	// copy event, job start and finish, and clock advance.
	SimConfig = sim.Config
	// Result is a completed run's metrics.
	Result = sim.Result
	// JobMetrics is one job's outcome.
	JobMetrics = sim.JobMetrics
	// DollyMP is the paper's scheduler; construct with NewDollyMP.
	DollyMP = core.Scheduler
	// FleetEvent injects a perturbation (slowdown, failure, restore)
	// into a simulation via SimConfig.Events.
	FleetEvent = sim.Event
	// ServerID identifies a server within a Cluster: its position in
	// Cluster.Servers().
	ServerID = cluster.ServerID

	// The custom-scheduler extension point: implement Scheduler by
	// writing Schedule(ctx SchedulerContext) []Placement (see
	// examples/customsched). The aliases below name every type that
	// appears in the interface and its helpers.

	// SchedulerContext is the read-only view a policy receives at each
	// decision point.
	SchedulerContext = sched.Context
	// Placement asks the engine to launch one task copy on a server.
	Placement = sched.Placement
	// TaskRef names one task (job, phase, index).
	TaskRef = workload.TaskRef
	// PendingTask is one schedulable unit yielded by a JobCursor.
	PendingTask = sched.PendingTask
	// JobCursor lazily enumerates a job's schedulable tasks.
	JobCursor = sched.JobCursor
	// FitTracker overlays tentative placements on cluster capacity
	// while planning a batch.
	FitTracker = sched.FitTracker
	// JobState is the scheduling view of one job.
	JobState = workload.JobState
)

// Helpers for custom schedulers, re-exported from the internal sched
// package.
var (
	NewJobCursor  = sched.NewJobCursor
	NewFitTracker = sched.NewFitTracker
)

// Fleet perturbation kinds for FleetEvent.
const (
	EventSlowdown = sim.EventSlowdown
	EventRecover  = sim.EventRecover
	EventFail     = sim.EventFail
	EventRestore  = sim.EventRestore
)

// Vec builds a resource vector from milli-cores and MiB; Cores from
// whole cores and GiB.
var (
	Vec   = resources.Vec
	Cores = resources.Cores
)

// NewCluster builds a fleet from explicit server specs.
func NewCluster(specs []ServerSpec) (*Cluster, error) { return cluster.New(specs) }

// Testbed30 is the paper's 30-node, 328-core private cluster (§6.1).
func Testbed30() *Cluster { return cluster.Testbed30() }

// LargeFleet is an n-server heterogeneous fleet in the style of the
// §6.3 trace-driven simulations.
func LargeFleet(n int, seed uint64) *Cluster { return cluster.LargeFleet(n, seed) }

// NewDollyMP builds the DollyMP scheduler. Options: WithClones (0–3,
// default 2), WithVarianceFactor (default 1.5), WithCloneBudget
// (default 0.3).
func NewDollyMP(opts ...core.Option) (*DollyMP, error) { return core.New(opts...) }

// Scheduler construction options, re-exported from the core package.
var (
	WithClones             = core.WithClones
	WithVarianceFactor     = core.WithVarianceFactor
	WithCloneBudget        = core.WithCloneBudget
	WithStragglerAvoidance = core.WithStragglerAvoidance
	WithEstimation         = core.WithEstimation
	WithSpeculation        = core.WithSpeculation
)

// EstimationConfig tunes the §5.2 Application-Master statistics
// estimation enabled by WithEstimation.
type EstimationConfig = estimate.Config

// Kind names a built-in scheduling policy.
type Kind string

// Built-in schedulers: DollyMP variants and the evaluation's baselines.
const (
	KindDollyMP0 Kind = "dollymp0"
	KindDollyMP1 Kind = "dollymp1"
	KindDollyMP2 Kind = "dollymp2"
	KindDollyMP3 Kind = "dollymp3"
	// KindYARN is the §5.2 two-level variant: DollyMP priorities at the
	// Resource Manager, per-job Application Masters binding tasks and
	// clones with data-locality preference.
	KindYARN     Kind = "yarn-dollymp2"
	KindCapacity Kind = "capacity"
	KindDRF      Kind = "drf"
	KindTetris   Kind = "tetris"
	KindCarbyne  Kind = "carbyne"
	KindSRPT     Kind = "srpt"
	KindSVF      Kind = "svf"
	// KindRandom places tasks FIFO on random fitting servers — the
	// calibration baseline any real policy must beat.
	KindRandom Kind = "random"
)

// Kinds lists every built-in scheduler name, in presentation order.
func Kinds() []Kind {
	names := builtin.Names()
	out := make([]Kind, len(names))
	for i, n := range names {
		out[i] = Kind(n)
	}
	return out
}

// NewScheduler builds a built-in scheduler by name with the paper's
// default parameters (r = 1.5, δ = 0.3); KindRandom is seeded with 1.
func NewScheduler(kind Kind) (Scheduler, error) {
	build, ok := builtin.Lookup(string(kind))
	if !ok {
		return nil, fmt.Errorf("dollymp: unknown scheduler %q (valid: %s)",
			kind, strings.Join(SchedulerNames(), ", "))
	}
	return build(1), nil
}

// Simulate runs one simulation to completion.
func Simulate(cfg SimConfig) (*Result, error) {
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Scenario is a self-contained, serializable simulation definition:
// fleet, workload, fault schedule and engine knobs. Build one, Write it
// to JSON, and Run it under any scheduler.
type Scenario = scenario.Scenario

// ReadScenario parses and validates a scenario file.
var ReadScenario = scenario.Read

// FleetSpecs extracts a cluster's server specs for embedding in a
// Scenario.
var FleetSpecs = scenario.Specs

// VerifyTrace certifies a recorded run (SimConfig.RecordTrace) against
// the paper's model constraints: per-server capacity (Eq. 5), phase
// precedence (Eq. 7) and completion accounting (Eqs. 6/8).
func VerifyTrace(res *Result, fleet *Cluster, jobs []*Job) error {
	return verify.Check(res.Trace, fleet, jobs)
}

// MixedWorkload builds the §6.2 deployment suite: n jobs, half WordCount
// (10 GB) and half PageRank (10 GB / 1 GB), arriving gapSlots apart.
func MixedWorkload(n int, gapSlots int64, seed uint64) []*Job {
	return trace.MixedDeployment(n,
		trace.Arrival{Kind: trace.FixedInterval, MeanGap: float64(gapSlots)}, seed)
}

// GoogleWorkload builds the §6.3 synthetic Google-trace-like workload:
// n jobs with heavy-tailed sizes and straggler-prone phases, Poisson
// arrivals with the given mean gap in slots.
func GoogleWorkload(n int, meanGapSlots float64, seed uint64) []*Job {
	return trace.DefaultGoogleLike(n, meanGapSlots, seed).Generate()
}

// WordCountJob and PageRankJob build single application jobs from the
// §6.2 templates; the RNG seed individualizes task statistics.
func WordCountJob(id int64, arrival int64, inputGB float64, seed uint64) *Job {
	return trace.WordCount(workload.JobID(id), arrival, inputGB, rngFor(seed))
}

// PageRankJob builds one PageRank job (see WordCountJob).
func PageRankJob(id int64, arrival int64, inputGB float64, seed uint64) *Job {
	return trace.PageRank(workload.JobID(id), arrival, inputGB, rngFor(seed))
}

// TeraSortJob builds one three-phase TeraSort job (sample → partition →
// sort).
func TeraSortJob(id int64, arrival int64, inputGB float64, seed uint64) *Job {
	return trace.TeraSort(workload.JobID(id), arrival, inputGB, rngFor(seed))
}

// MLIterationJob builds one diamond-DAG training iteration (load →
// parallel gradient shards → aggregate).
func MLIterationJob(id int64, arrival int64, scale float64, seed uint64) *Job {
	return trace.MLIteration(workload.JobID(id), arrival, scale, rngFor(seed))
}

func rngFor(seed uint64) *stats.RNG { return stats.NewRNG(seed) }
