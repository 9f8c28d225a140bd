// Package trace generates the synthetic workloads the evaluation runs:
// WordCount and PageRank application templates (§6.2) and a Google-trace-
// like job mix (§6.3) reproducing the statistics the paper relies on —
// heavy-tailed task counts and durations, per-task CPU/memory demands,
// 70% of phases containing ≥15% stragglers up to 20× slower. Traces can
// be serialized to JSON for replay.
package trace

import (
	"strconv"

	"dollymp/internal/resources"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

// Durations are in slots; with the paper's 5-second slot, a 60-slot map
// phase is five minutes of wall clock.

// WordCount builds the 2-phase map→reduce WordCount job of §6.2. Task
// count scales with input gigabytes (one map task per 128 MB block, a
// fixed map:reduce ratio), durations are heavy-tailed around means that
// scale weakly with input size.
func WordCount(id workload.JobID, arrival int64, inputGB float64, rng *stats.RNG) *workload.Job {
	mapTasks := int(inputGB*8 + 0.5) // one task per 128 MB
	if mapTasks < 1 {
		mapTasks = 1
	}
	reduceTasks := mapTasks / 4
	if reduceTasks < 1 {
		reduceTasks = 1
	}
	mapMean := rng.Range(8, 14)    // 40–70 s of map work
	reduceMean := rng.Range(6, 10) // 30–50 s of reduce work
	return workload.Chain(id, jobName("wordcount", id), "wordcount", arrival, []workload.Phase{
		{
			Name:         "map",
			Tasks:        mapTasks,
			Demand:       resources.Vec(1000, 2048), // 1 core, 2 GiB
			MeanDuration: mapMean,
			SDDuration:   mapMean * rng.Range(0.3, 0.8),
		},
		{
			Name:         "reduce",
			Tasks:        reduceTasks,
			Demand:       resources.Vec(1500, 3072), // 1.5 cores, 3 GiB
			MeanDuration: reduceMean,
			SDDuration:   reduceMean * rng.Range(0.3, 0.7),
		},
	})
}

// iterNames names PageRank's rank iterations.
var iterNames = [...]string{"iter-0", "iter-1", "iter-2"}

// PageRank builds the iterative PageRank job of §6.2: an init phase, a
// few rank iterations each depending on the previous one, and a finalize
// phase. Half the evaluation's PageRank jobs use 10 GB inputs and half
// ~1 GB.
func PageRank(id workload.JobID, arrival int64, inputGB float64, rng *stats.RNG) *workload.Job {
	tasksPerIter := int(inputGB*6 + 0.5)
	if tasksPerIter < 1 {
		tasksPerIter = 1
	}
	phases := make([]workload.Phase, 0, len(iterNames)+2)
	initMean := rng.Range(6, 10)
	phases = append(phases, workload.Phase{
		Name:         "init",
		Tasks:        tasksPerIter,
		Demand:       resources.Vec(1000, 3072),
		MeanDuration: initMean,
		SDDuration:   initMean * rng.Range(0.2, 0.5),
	})
	for _, name := range iterNames {
		m := rng.Range(10, 16)
		phases = append(phases, workload.Phase{
			Name:         name,
			Tasks:        tasksPerIter,
			Demand:       resources.Vec(2000, 4096), // 2 cores, 4 GiB
			MeanDuration: m,
			SDDuration:   m * rng.Range(0.4, 0.9),
		})
	}
	finMean := rng.Range(4, 7)
	phases = append(phases, workload.Phase{
		Name:         "finalize",
		Tasks:        max(1, tasksPerIter/3),
		Demand:       resources.Vec(1000, 2048),
		MeanDuration: finMean,
		SDDuration:   finMean * rng.Range(0.2, 0.4),
	})
	return workload.Chain(id, jobName("pagerank", id), "pagerank", arrival, phases)
}

// TeraSort builds a three-phase sort job: sample (tiny, estimates the
// partition boundaries), partition (wide map), and sort (reduce-heavy,
// memory-bound). A classic MapReduce benchmark shape with one short
// phase ahead of two heavy ones.
func TeraSort(id workload.JobID, arrival int64, inputGB float64, rng *stats.RNG) *workload.Job {
	widthTasks := int(inputGB*8 + 0.5)
	if widthTasks < 1 {
		widthTasks = 1
	}
	sortTasks := max(1, widthTasks/2)
	sampleMean := rng.Range(2, 4)
	partMean := rng.Range(8, 14)
	sortMean := rng.Range(10, 18)
	return workload.Chain(id, jobName("terasort", id), "terasort", arrival, []workload.Phase{
		{
			Name:         "sample",
			Tasks:        max(1, widthTasks/16),
			Demand:       resources.Vec(500, 1024),
			MeanDuration: sampleMean,
			SDDuration:   sampleMean * rng.Range(0.1, 0.3),
		},
		{
			Name:         "partition",
			Tasks:        widthTasks,
			Demand:       resources.Vec(1000, 2048),
			MeanDuration: partMean,
			SDDuration:   partMean * rng.Range(0.3, 0.8),
		},
		{
			Name:         "sort",
			Tasks:        sortTasks,
			Demand:       resources.Vec(1000, 6144), // memory-bound
			MeanDuration: sortMean,
			SDDuration:   sortMean * rng.Range(0.4, 0.9),
		},
	})
}

// MLIteration builds a diamond-DAG training job: a load phase fans out
// to two parallel gradient shards which join at an aggregation phase —
// the non-chain dependency structure Graphene-style schedulers target.
func MLIteration(id workload.JobID, arrival int64, scale float64, rng *stats.RNG) *workload.Job {
	shard := int(scale*4 + 0.5)
	if shard < 1 {
		shard = 1
	}
	loadMean := rng.Range(4, 8)
	gradMean := rng.Range(8, 14)
	aggMean := rng.Range(3, 6)
	return &workload.Job{
		ID:      id,
		Name:    jobName("mliter", id),
		App:     "mliter",
		Arrival: arrival,
		Phases: []workload.Phase{
			{
				Name:         "load",
				Tasks:        shard,
				Demand:       resources.Vec(1000, 4096),
				MeanDuration: loadMean,
				SDDuration:   loadMean * rng.Range(0.1, 0.4),
			},
			{
				Name:         "grad-a",
				Tasks:        shard,
				Demand:       resources.Vec(2000, 2048),
				MeanDuration: gradMean,
				SDDuration:   gradMean * rng.Range(0.4, 0.9),
				Parents:      []workload.PhaseID{0},
			},
			{
				Name:         "grad-b",
				Tasks:        shard,
				Demand:       resources.Vec(2000, 2048),
				MeanDuration: gradMean,
				SDDuration:   gradMean * rng.Range(0.4, 0.9),
				Parents:      []workload.PhaseID{0},
			},
			{
				Name:         "aggregate",
				Tasks:        1,
				Demand:       resources.Vec(1000, 3072),
				MeanDuration: aggMean,
				SDDuration:   aggMean * rng.Range(0.1, 0.3),
				Parents:      []workload.PhaseID{1, 2},
			},
		},
	}
}

// jobName is app-id, the name every generator gives its job (GoogleLike
// passes "g").
func jobName(app string, id workload.JobID) string {
	var b [32]byte
	return string(strconv.AppendInt(append(append(b[:0], app...), '-'), int64(id), 10))
}
