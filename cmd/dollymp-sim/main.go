// Command dollymp-sim runs one scheduler over one workload on a chosen
// fleet and prints per-run metrics, optionally as JSON.
//
// Usage:
//
//	dollymp-sim -scheduler dollymp2 -workload mixed -jobs 100 -gap 40
//	dollymp-sim -scheduler tetris -workload google -jobs 500 -fleet 600
//	dollymp-sim -scheduler capacity -trace jobs.json
//	dollymp-sim -fleet 32 -seed 1 -trace replay.trace
//
// -trace takes either format dollymp-trace writes and tells them apart
// by the first bytes. A JSON envelope is read whole and run as a batch.
// A framed stream (-format stream) is replayed: jobs are decoded one at
// a time into an online engine a bounded window ahead of its clock
// (sim.Engine.Drain) and finished jobs are folded into a digest, so
// memory follows the live set and a 25M-job trace replays in what a
// 1M-job trace does. The report then gives flowtime quantiles as
// factor-of-two bounds, and -json a Result with Digest in place of Jobs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dollymp"
	"dollymp/internal/resources"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
)

// maxSamples bounds the points -timeline holds.
const maxSamples = 40

// timelinePoint is the cluster state that held from Slot until the next
// point's Slot.
type timelinePoint struct {
	Slot                      int64
	ActiveJobs, RunningCopies int
	// UtilizationCPU and UtilizationMem are fractions of total
	// capacity in use.
	UtilizationCPU, UtilizationMem float64
}

// sampler is -timeline's engine observer. It derives the active jobs,
// the running copies and the resources those hold from the event stream
// and keeps the state at every every-th clock advance; holding more than
// maxSamples points, it drops every other one and doubles every, so the
// points stay spread over the whole run in bounded memory.
type sampler struct {
	total, used     resources.Vector
	active, running int
	advances, every int64
	points          []timelinePoint
}

func (s *sampler) observe(o *sim.Observation) {
	switch o.Kind {
	case sim.TraceArrive:
		s.active++
	case sim.TraceJobDone:
		s.active--
	case sim.TracePlace:
		s.running++
		s.used = s.used.Add(o.Demand)
	case sim.TraceComplete, sim.TraceKill, sim.TraceLost:
		s.running--
		s.used = s.used.Sub(o.Demand)
	case sim.TraceAdvance:
		if s.advances%s.every == 0 {
			s.points = append(s.points, timelinePoint{
				Slot: o.Slot, ActiveJobs: s.active, RunningCopies: s.running,
				UtilizationCPU: float64(s.used.CPUMilli) / float64(s.total.CPUMilli),
				UtilizationMem: float64(s.used.MemMiB) / float64(s.total.MemMiB),
			})
		}
		s.advances++
		if len(s.points) > maxSamples {
			kept := (len(s.points) + 1) / 2
			for i := 0; i < kept; i++ {
				s.points[i] = s.points[2*i]
			}
			s.points, s.every = s.points[:kept], 2*s.every
		}
	}
}

func main() {
	var (
		schedName = flag.String("scheduler", "dollymp2", "scheduler: "+strings.Join(dollymp.SchedulerNames(), ", "))
		wl        = flag.String("workload", "mixed", "workload: "+strings.Join(dollymp.WorkloadNames(), ", "))
		jobs      = flag.Int("jobs", 100, "number of jobs")
		gap       = flag.Float64("gap", 40, "inter-arrival gap in slots (5s each)")
		fleet     = flag.String("fleet", "testbed30", "fleet: testbed30, or a server count for a large fleet")
		seed      = flag.Uint64("seed", 42, "random seed")
		traceFile = flag.String("trace", "", "replay a trace file (JSON envelope, or a framed stream replayed in bounded memory) instead of generating a workload")
		scenFile  = flag.String("scenario", "", "run a scenario file (fleet + jobs + events) under -scheduler")
		jsonOut   = flag.Bool("json", false, "emit JSON instead of text")
		det       = flag.Bool("deterministic", false, "disable duration noise")
		timeline  = flag.Bool("timeline", false, "print a sampled utilization/backlog timeline")
	)
	flag.Parse()

	if *scenFile != "" {
		if err := runScenario(*scenFile, *schedName, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "dollymp-sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := realMain(*schedName, *wl, *jobs, *gap, *fleet, *seed, *traceFile, *jsonOut, *det, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "dollymp-sim:", err)
		os.Exit(1)
	}
}

// runScenario loads a scenario file and executes it under the named
// scheduler.
func runScenario(path, schedName string, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := dollymp.ReadScenario(f)
	if err != nil {
		return err
	}
	policy, err := dollymp.NewScheduler(dollymp.Kind(schedName))
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sc.Run(policy)
	if err != nil {
		return err
	}
	return report(res, nil, time.Since(start), jsonOut)
}

func realMain(schedName, wl string, jobs int, gap float64, fleetSpec string, seed uint64, traceFile string, jsonOut, det, timeline bool) error {
	start := time.Now()
	var tl *sampler
	if timeline {
		tl = &sampler{every: 1}
	}
	res, err := simulate(schedName, wl, jobs, gap, fleetSpec, seed, traceFile, det, tl)
	if err != nil {
		return err
	}
	return report(res, tl, time.Since(start), jsonOut)
}

// simulate builds the run the flags describe and drives it to the end,
// with tl, when not nil, observing it.
func simulate(schedName, wl string, jobs int, gap float64, fleetSpec string, seed uint64, traceFile string, det bool, tl *sampler) (*dollymp.Result, error) {
	sched, err := dollymp.NewScheduler(dollymp.Kind(schedName))
	if err != nil {
		return nil, err
	}
	fleet, err := dollymp.NewFleet(fleetSpec, seed)
	if err != nil {
		return nil, err
	}
	cfg := dollymp.SimConfig{
		Cluster:       fleet,
		Scheduler:     sched,
		Seed:          seed,
		Deterministic: det,
	}
	if tl != nil {
		tl.total, cfg.Observe = fleet.Total(), tl.observe
	}
	if traceFile == "" {
		if cfg.Jobs, err = dollymp.NewWorkload(wl, jobs, gap, seed); err != nil {
			return nil, err
		}
		return dollymp.Simulate(cfg)
	}

	f, err := os.Open(traceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [8]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if !trace.IsStream(hdr[:n]) {
		if cfg.Jobs, err = trace.Read(f); err != nil {
			return nil, err
		}
		return dollymp.Simulate(cfg)
	}
	s, err := trace.NewStream(f)
	if err != nil {
		return nil, err
	}
	cfg.Online, cfg.CompactJobs = true, true
	// The default horizon guards a batch run against a runaway
	// schedule; a stream is finite, and 25M jobs pass 10M slots.
	cfg.MaxSlots = 1 << 62
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Drain(s.Next)
}

func report(res *dollymp.Result, tl *sampler, wall time.Duration, jsonOut bool) error {
	var points []timelinePoint
	if tl != nil {
		points = tl.points
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			*dollymp.Result
			Timeline []timelinePoint
		}{res, points})
	}
	fmt.Printf("scheduler:        %s\n", res.Scheduler)
	fmt.Printf("jobs completed:   %d\n", res.Completed)
	fmt.Printf("makespan:         %d slots\n", res.Makespan)
	fmt.Printf("total flowtime:   %d slots\n", res.TotalFlowtime())
	fmt.Printf("mean flowtime:    %.1f slots\n", res.MeanFlowtime())
	if d := res.Digest; d != nil {
		fmt.Printf("p50/p95 flowtime: ≤%d / ≤%d slots\n", d.Flowtime.Quantile(0.5), d.Flowtime.Quantile(0.95))
	} else {
		ecdf := res.FlowtimeECDF()
		fmt.Printf("p50/p95 flowtime: %.0f / %.0f slots\n", ecdf.Quantile(0.5), ecdf.Quantile(0.95))
	}
	fmt.Printf("tasks cloned:     %.1f%%\n", 100*res.ClonedTaskFraction())
	fmt.Printf("avg utilization:  %.1f%%\n", 100*res.AvgUtilization)
	fmt.Printf("sched decisions:  %d calls, %v total\n", res.SchedCalls, res.SchedWall)
	fmt.Printf("wall time:        %.2f s, %.0f jobs/s\n", wall.Seconds(), float64(res.Completed)/wall.Seconds())
	if len(points) > 0 {
		fmt.Println("\ntimeline (sampled):")
		fmt.Printf("  %8s %12s %14s %10s %10s\n", "slot", "active jobs", "running copies", "cpu util", "mem util")
		step := len(points)/20 + 1
		for i := 0; i < len(points); i += step {
			p := points[i]
			fmt.Printf("  %8d %12d %14d %9.1f%% %9.1f%%\n",
				p.Slot, p.ActiveJobs, p.RunningCopies, 100*p.UtilizationCPU, 100*p.UtilizationMem)
		}
	}
	return nil
}
