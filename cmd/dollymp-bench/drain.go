package main

// The drain benchmarks, the scale harness: `-drain engine` drives the
// online engine through a large injected workload (the full profile is
// a 1M-job drain, the replay profiles stream 1M–25M jobs from disk) and
// `-drain router` pushes jobs through the sharded service core end to
// end. jobs/s and peak RSS are the reported series; clock_slots is
// deterministic and doubles as a cross-run sanity check that the
// simulated schedule itself did not drift. Regressions are judged by
// the BENCHMARK.json pipeline (bench/), which runs parent and change on
// one machine — these reports are not compared against committed
// numbers.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/shard"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// drainOptions carries the -drain flag group.
type drainOptions struct {
	area     string // "engine" or "router"
	profiles string // comma-separated subset of the area's profile names
	out      string // JSON path; "-" = stdout
	// traceDir is where replay profiles find (or generate) their
	// streamed trace files.
	traceDir string
	// cpuprofile/memprofile capture pprof data over the measured drains.
	// Under isolation each per-profile child writes its own, with the
	// profile name inserted before the extension.
	cpuprofile string
	memprofile string
	// isolate re-execs one child per profile so peak RSS is measured
	// per profile rather than per process lifetime (isolate.go). main
	// sets it; re-exec'd children and unit tests leave it off.
	isolate bool
	// jsonOut overrides where an out of "-" writes the report (nil =
	// the progress writer). Children set it to real stdout so progress
	// on stderr can't corrupt the report the parent parses.
	jsonOut io.Writer
}

// drainProfile fixes one measurement's scale. Profiles are named so
// -profiles can re-run a subset.
type drainProfile struct {
	name   string
	jobs   int
	fleet  int
	shards int // router only
	// trace marks a replay profile: the basename of the streamed trace
	// file (under -trace-dir) drained instead of synthetic jobs.
	ballastMB int // rss-* fixture profiles: heap held live through the drain
	trace     string
	// backlog drains Google-like multi-phase jobs that all arrive at
	// slot 0 instead of the paced one-phase drain jobs.
	backlog bool
}

func engineProfiles() []drainProfile {
	return []drainProfile{
		// short/full share a fleet so jobs/s is comparable and the full
		// run isolates memory behaviour (10× the jobs must not mean 10×
		// the RSS) rather than scheduler cost on a larger fleet. The -2k
		// pair scales the fleet 10× instead: it tracks scheduler decision
		// cost past 200 servers, where the per-slot placement pass (not
		// the arrival queue) dominates.
		{name: "short", jobs: 100_000, fleet: 200},
		{name: "full", jobs: 1_000_000, fleet: 200},
		{name: "short-2k", jobs: 200_000, fleet: 2000},
		{name: "full-2k", jobs: 1_000_000, fleet: 2000},
	}
}

func routerProfiles() []drainProfile {
	return []drainProfile{
		{name: "short", jobs: 2_000, fleet: 64, shards: 4},
		{name: "full", jobs: 10_000, fleet: 256, shards: 4},
	}
}

// extraEngineProfiles are selectable by name but excluded from the
// default `-drain engine` set: the replay profiles because the larger
// two stream for many minutes (and generate multi-GB traces on first
// use), the rss-* pair because they are fixtures for the per-profile
// peak-RSS regression test, not benchmarks — ballast holds a large
// live heap through a small drain, lean runs the same drain without
// it, and a correct per-profile measurement must tell them apart.
// backlog is the packing regime — the whole workload queued on a small
// fleet, the shape of the repo benchmark's backlog-200 — kept out of the
// default set because its jobs/s says nothing about a paced drain's.
func extraEngineProfiles() []drainProfile {
	return []drainProfile{
		{name: "backlog", jobs: 15_000, fleet: 200, backlog: true},
		{name: "replay-1m", jobs: 1_000_000, fleet: replayFleet, trace: "replay-1m.trace"},
		{name: "replay-10m", jobs: 10_000_000, fleet: replayFleet, trace: "replay-10m.trace"},
		{name: "replay-25m", jobs: 25_000_000, fleet: replayFleet, trace: "replay-25m.trace"},
		{name: "rss-ballast", jobs: 2_000, fleet: 8, ballastMB: 256},
		{name: "rss-lean", jobs: 2_000, fleet: 8},
	}
}

// drainRun is one measured drain in a BENCH_engine.json /
// BENCH_router.json report. peak_rss_bytes is omitted where
// /proc/self/status is unavailable.
type drainRun struct {
	Profile      string  `json:"profile"`
	Jobs         int     `json:"jobs"`
	Fleet        int     `json:"fleet"`
	Shards       int     `json:"shards,omitempty"`
	Trace        string  `json:"trace,omitempty"`
	Scheduler    string  `json:"scheduler"`
	Seed         uint64  `json:"seed"`
	ClockSlots   int64   `json:"clock_slots"`
	WallTimeNs   int64   `json:"wall_time_ns"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	PeakRSSBytes int64   `json:"peak_rss_bytes,omitempty"`
	// PendingPeak is the arrival-queue high-water mark (engine drains
	// only): bounded memory shows up here as pending ≪ jobs.
	PendingPeak int `json:"pending_arrivals_peak,omitempty"`
}

// drainReport is the BENCH_engine.json / BENCH_router.json schema.
type drainReport struct {
	Schema string     `json:"schema"`
	Area   string     `json:"area"`
	Runs   []drainRun `json:"runs"`
}

const drainSchema = "dollymp-bench-drain/v1"

// backlogSeed selects the backlog profile's generated jobs.
const backlogSeed = 42

func parseProfiles(area, s string) ([]drainProfile, error) {
	var all []drainProfile
	switch area {
	case "engine":
		all = engineProfiles()
	case "router":
		all = routerProfiles()
	default:
		return nil, fmt.Errorf("unknown -drain %q (engine or router)", area)
	}
	if s == "" {
		return all, nil
	}
	if area == "engine" {
		all = append(all, extraEngineProfiles()...)
	}
	var out []drainProfile
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, p := range all {
			if p.name == name {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, p := range all {
				known[i] = p.name
			}
			return nil, fmt.Errorf("unknown -profiles entry %q (%s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// runDrainMode executes the selected profiles and writes the report.
// With opts.isolate each profile runs in a re-exec'd child so its peak
// RSS covers that profile alone; pprof capture then happens in the
// children (per-profile files), not here.
func runDrainMode(opts drainOptions, stdout io.Writer) error {
	profiles, err := parseProfiles(opts.area, opts.profiles)
	if err != nil {
		return err
	}
	if opts.cpuprofile != "" && !opts.isolate {
		f, err := os.Create(opts.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if opts.memprofile != "" && !opts.isolate {
		defer func() {
			f, err := os.Create(opts.memprofile)
			if err != nil {
				fmt.Fprintln(stdout, "mem profile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stdout, "mem profile:", err)
			}
		}()
	}
	report := drainReport{Schema: drainSchema, Area: opts.area}
	for _, p := range profiles {
		var run drainRun
		var err error
		forked := false
		if opts.isolate {
			run, forked, err = drainProfileIsolated(opts, p, stdout)
		}
		if !forked && err == nil {
			// In-process: return freed heap to the OS and reset the
			// high-water mark first, so this profile doesn't inherit the
			// largest earlier peak. Best-effort — re-exec is the real fix.
			debug.FreeOSMemory()
			resetPeakRSS()
			run, err = runProfile(opts, p, stdout)
		}
		if err != nil {
			return fmt.Errorf("drain %s/%s: %w", opts.area, p.name, err)
		}
		fmt.Fprintf(stdout, "%s/%s: %d jobs in %.2fs = %.0f jobs/s (clock %d slots, pending peak %d)\n",
			opts.area, p.name, run.Jobs, float64(run.WallTimeNs)/1e9, run.JobsPerSec,
			run.ClockSlots, run.PendingPeak)
		report.Runs = append(report.Runs, run)
	}
	out := opts.out
	if out == "" {
		out = "BENCH_" + opts.area + ".json"
	}
	jsonW := opts.jsonOut
	if jsonW == nil {
		jsonW = stdout
	}
	if err := writeJSON(out, &report, jsonW); err != nil {
		return err
	}
	if out != "-" {
		fmt.Fprintf(stdout, "wrote %s (%d runs)\n", out, len(report.Runs))
	}
	return nil
}

// runProfile dispatches one in-process profile run.
func runProfile(opts drainOptions, p drainProfile, progress io.Writer) (drainRun, error) {
	switch {
	case opts.area == "router":
		return routerDrain(p)
	case p.trace != "":
		return replayDrain(p, opts.traceDir, progress)
	default:
		return engineDrain(p)
	}
}

// drainJob builds the i-th synthetic job of a drain workload: a
// one-phase job whose task count and duration cycle deterministically,
// the same shape BenchmarkRouterDrain uses.
func drainJob(i int) *workload.Job {
	return &workload.Job{
		Name: "drain", App: "bench",
		Phases: []workload.Phase{{
			Name: "p", Tasks: 1 + i%4, Demand: resources.Cores(1, 2),
			MeanDuration: float64(2 + i%8), SDDuration: 1,
		}},
	}
}

// engineDrain drives one online engine through p.jobs injected jobs —
// the hot path the indexed-heap arrival queue and the taskCopy pool
// serve. Injection is paced by a bounded lookahead window, the shape of
// a live daemon's admission stream: peak RSS therefore measures the
// pending backlog, not the lifetime workload.
func engineDrain(p drainProfile) (drainRun, error) {
	scheduler, err := core.New(core.WithClones(2))
	if err != nil {
		return drainRun{}, err
	}
	const seed = 1
	eng, err := sim.New(sim.Config{
		Cluster:   cluster.LargeFleet(p.fleet, seed),
		Scheduler: scheduler,
		Seed:      seed,
		Online:    true,
		MaxSlots:  1 << 62,
	})
	if err != nil {
		return drainRun{}, err
	}

	// The rss-ballast fixture holds a touched heap block live through
	// the whole drain, so its peak RSS must sit ~ballastMB above the
	// otherwise-identical rss-lean profile's.
	var ballast []byte
	if p.ballastMB > 0 {
		ballast = make([]byte, p.ballastMB<<20)
		for i := 0; i < len(ballast); i += 4096 {
			ballast[i] = 1
		}
	}

	// Arrival pacing: target roughly half of fleet core-slot capacity so
	// the engine stays busy without building an unbounded backlog.
	// LargeFleet averages ~14 cores/server; a mean job is ~2.5 tasks ×
	// ~5.5 slots × ~2 copies (clone budget) ≈ 27 core-slots, so load 0.5
	// needs ≈ fleet/4 jobs per slot.
	jobsPerSlot := p.fleet / 4
	if jobsPerSlot < 1 {
		jobsPerSlot = 1
	}
	job := func(i int) *workload.Job {
		j := drainJob(i)
		j.ID = workload.JobID(i + 1)
		j.Arrival = int64(i / jobsPerSlot)
		return j
	}
	if p.backlog {
		jobs := trace.DefaultGoogleLike(p.jobs, 1.0, backlogSeed).Generate()
		job = func(i int) *workload.Job {
			jobs[i].Arrival = 0
			return jobs[i]
		}
	}
	const window = 4096 // max injected-but-not-arrived jobs

	start := time.Now()
	next := 0
	pendingPeak := 0
	inject := func() error {
		for next < p.jobs && eng.PendingArrivals() < window {
			if _, err := eng.InjectJob(job(next)); err != nil {
				return err
			}
			next++
		}
		if pa := eng.PendingArrivals(); pa > pendingPeak {
			pendingPeak = pa
		}
		return nil
	}
	if err := inject(); err != nil {
		return drainRun{}, err
	}
	for {
		idle, err := eng.Step()
		if err != nil {
			return drainRun{}, err
		}
		if err := inject(); err != nil {
			return drainRun{}, err
		}
		if idle && next >= p.jobs {
			break
		}
	}
	wall := time.Since(start)
	res := eng.Finalize()
	if len(res.Jobs) != p.jobs {
		return drainRun{}, fmt.Errorf("completed %d of %d jobs", len(res.Jobs), p.jobs)
	}

	run := drainRun{
		Profile: p.name, Jobs: p.jobs, Fleet: p.fleet,
		Scheduler: scheduler.Name(), Seed: seed,
		ClockSlots: eng.Clock(), WallTimeNs: wall.Nanoseconds(),
		JobsPerSec:  float64(p.jobs) / wall.Seconds(),
		PendingPeak: pendingPeak,
	}
	if rss, ok := peakRSSBytes(); ok {
		run.PeakRSSBytes = rss
	}
	runtime.KeepAlive(ballast) // resident until after the RSS read
	return run, nil
}

// routerDrain pushes p.jobs through the sharded service core (submit +
// schedule + drain, no HTTP): the jobs/s companion series to
// BenchmarkRouterDrain, in BENCH_router.json form.
func routerDrain(p drainProfile) (drainRun, error) {
	const seed = 7
	r, err := shard.New(shard.Config{
		Fleet:  cluster.LargeFleet(p.fleet, 1),
		Shards: p.shards,
		NewScheduler: func(int) (sched.Scheduler, error) {
			return core.New(core.WithClones(2))
		},
		Seed: seed, QueueCap: 8192,
	})
	if err != nil {
		return drainRun{}, err
	}
	start := time.Now()
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	for i := 0; i < p.jobs; i++ {
		if _, err := r.Submit(ctx, drainJob(i)); err != nil {
			return drainRun{}, fmt.Errorf("submit %d: %w", i, err)
		}
	}
	if err := r.Stop(ctx); err != nil {
		return drainRun{}, err
	}
	wall := time.Since(start)
	if c := r.Counts(); c.Completed != int64(p.jobs) {
		return drainRun{}, fmt.Errorf("completed %d of %d jobs", c.Completed, p.jobs)
	}
	var clock int64
	for _, st := range r.Shards() {
		if st.Clock > clock {
			clock = st.Clock
		}
	}

	run := drainRun{
		Profile: p.name, Jobs: p.jobs, Fleet: p.fleet, Shards: p.shards,
		Scheduler: "dollymp2", Seed: seed,
		ClockSlots: clock, WallTimeNs: wall.Nanoseconds(),
		JobsPerSec: float64(p.jobs) / wall.Seconds(),
	}
	if rss, ok := peakRSSBytes(); ok {
		run.PeakRSSBytes = rss
	}
	return run, nil
}

// writeJSON writes v indented to path ("-" = stdout).
func writeJSON(path string, v interface{}, stdout io.Writer) error {
	if path == "-" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
