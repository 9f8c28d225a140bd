package main

// The three engine workloads: one online sim.Engine driven from a
// single goroutine through InjectJob/Step with a bounded lookahead,
// exactly as cmd/dollymp-bench's engineDrain and replayDrain drive it.

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// window is the most injected-but-not-arrived jobs the driver keeps
// ahead of the engine clock, so memory follows the live set.
const window = 4096

// engineSeed seeds the engine's duration draws and the fleet builder.
// The workload seed (-seed) only selects the jobs.
const engineSeed = 1

// engineRun is one set-up engine workload, ready to drive.
type engineRun struct {
	w     *workloadSpec
	o     childOptions
	rec   *recorder
	n     int
	fleet *cluster.Cluster
	// jobs is the whole workload, or nil when it streams from disk.
	jobs   []*workload.Job
	stream *trace.FileStream
	next   func() (*workload.Job, error)
	eng    *sim.Engine
}

func setupEngine(w *workloadSpec, o childOptions, rec *recorder) (instance, error) {
	return newEngineRun(w, o, rec, false)
}

// newEngineRun generates the jobs (onto disk for a replay workload) and
// builds fleet, scheduler and engine. recordTrace keeps the engine's
// event log for certification.
func newEngineRun(w *workloadSpec, o childOptions, rec *recorder, recordTrace bool) (*engineRun, error) {
	e := &engineRun{w: w, o: o, rec: rec, n: w.jobs / o.scale.div}
	gen := trace.DefaultGoogleLike(e.n, 1.0, o.seed)
	e.fleet = cluster.LargeFleet(w.servers, engineSeed)
	if w.replay {
		path := filepath.Join(o.tmp, "replay.trace")
		fw, err := trace.CreateStream(path)
		if err != nil {
			return nil, err
		}
		if err := gen.Emit(fw.Append); err != nil {
			fw.Close()
			return nil, fmt.Errorf("generate %s: %w", path, err)
		}
		if err := fw.Close(); err != nil {
			return nil, fmt.Errorf("generate %s: %w", path, err)
		}
		if e.stream, err = trace.OpenStream(path); err != nil {
			return nil, err
		}
		e.next = e.stream.Next
	} else {
		e.jobs = gen.Generate()
		for i, j := range e.jobs {
			j.Arrival = 0
			if w.jobsPerSlot > 0 {
				j.Arrival = int64(i / w.jobsPerSlot)
			}
		}
		i := 0
		e.next = func() (*workload.Job, error) {
			if i == len(e.jobs) {
				return nil, io.EOF
			}
			i++
			return e.jobs[i-1], nil
		}
	}

	dolly, err := core.New(core.WithClones(2))
	if err != nil {
		e.close()
		return nil, err
	}
	var scheduler sched.Scheduler = dolly
	if rec != nil {
		scheduler = rec.wrapScheduler(dolly, rec.perCall)
	}
	e.eng, err = sim.New(sim.Config{
		Cluster:     e.fleet,
		Scheduler:   scheduler,
		Seed:        engineSeed,
		Online:      true,
		CompactJobs: w.replay,
		RecordTrace: recordTrace,
		MaxSlots:    1 << 62,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *engineRun) close() error {
	if e.stream != nil {
		return e.stream.Close()
	}
	return nil
}

// driven is what one drive of the engine measured.
type driven struct {
	wall, cpu                         float64
	injected, activePeak, pendingPeak int
	res                               *sim.Result
}

// drive injects every job and steps the engine until it is idle.
func (e *engineRun) drive() (driven, error) {
	var d driven
	eng, rec, next := e.eng, e.rec, e.next
	step, injectJob := eng.Step, eng.InjectJob
	if rec != nil {
		if e.w.replay {
			next = func() (j *workload.Job, err error) {
				rec.time("trace.decode", func() { j, err = e.next() })
				return
			}
		}
		injectJob = func(j *workload.Job) (at int64, err error) {
			rec.time("sim.inject", func() { at, err = eng.InjectJob(j) })
			return
		}
		step = func() (bool, error) {
			var id int32
			if rec.perCall {
				id = rec.begin()
			}
			rec.step = id
			start := time.Now()
			idle, err := eng.Step()
			rec.end(id, 0, "sim.step", start, time.Now(), 1, "", rec.perCall)
			rec.step = 0
			return idle, err
		}
	}

	drained := false
	inject := func() error {
		for !drained && eng.PendingArrivals() < window {
			j, err := next()
			if err == io.EOF {
				drained = true
				break
			}
			if err != nil {
				return err
			}
			if _, err := injectJob(j); err != nil {
				return fmt.Errorf("inject job %d: %w", j.ID, err)
			}
			d.injected++
		}
		d.pendingPeak = max(d.pendingPeak, eng.PendingArrivals())
		return nil
	}

	cpu0 := cpuSeconds()
	start := time.Now()
	if err := inject(); err != nil {
		return d, err
	}
	for {
		idle, err := step()
		if err != nil {
			return d, err
		}
		d.activePeak = max(d.activePeak, eng.ActiveJobs())
		if err := inject(); err != nil {
			return d, err
		}
		if idle && drained {
			break
		}
	}
	d.wall = time.Since(start).Seconds()
	d.cpu = cpuSeconds() - cpu0
	d.res = eng.Finalize()
	return d, nil
}

func (e *engineRun) run() (*repResult, error) {
	d, err := e.drive()
	if err != nil {
		return nil, err
	}
	res, n := d.res, e.n
	rep := &repResult{
		Attempted: int64(n),
		Failed:    int64(n - res.Completed),
		WallS:     d.wall,
		Metrics: map[string]float64{
			"jobs_per_s":     float64(res.Completed) / d.wall,
			"cpu_us_per_job": d.cpu * 1e6 / float64(max(res.Completed, 1)),

			"sim.mean_jct_slots":        res.MeanFlowtime(),
			"sim.makespan_slots":        float64(res.Makespan),
			"sim.injects":               float64(d.injected),
			"sim.active_jobs_peak":      float64(d.activePeak),
			"sim.pending_arrivals_peak": float64(d.pendingPeak),
			"sim.copies_launched":       float64(copiesLaunched(res)),
			"sim.utilization":           res.AvgUtilization,
			"sim.tasks_cloned_share":    res.ClonedTaskFraction(),
			"core.schedule_calls":       float64(res.SchedCalls),
		},
	}
	if d.injected != n {
		rep.problem("injected %d of %d jobs", d.injected, n)
	}
	if res.Completed != n {
		rep.problem("completed %d of %d jobs", res.Completed, n)
	}
	if e.w.replay {
		if e.stream.Decoded() != int64(n) {
			rep.problem("decoded %d frames, trace holds %d jobs", e.stream.Decoded(), n)
		}
		rep.Metrics["trace.frames"] = float64(e.stream.Decoded())
		rep.Metrics["trace.bytes"] = float64(e.stream.Offset())
	}
	if e.rec != nil {
		e.layers(rep, d.wall)
		if !e.w.replay {
			if err := e.certify(rep, res); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// certify drives the workload once more, untimed and undecorated, with
// the engine's event log on, and hands the log to verify.Check. The log
// is some 3e6 events on paced-2k, which is why the timed traced drive
// does not keep it, and it needs the whole job list to check against,
// which is why replay-32 has none.
func (e *engineRun) certify(rep *repResult, traced *sim.Result) error {
	c, err := newEngineRun(e.w, e.o, nil, true)
	if err != nil {
		return err
	}
	defer c.close()
	d, err := c.drive()
	if err != nil {
		return err
	}
	if d.res.TotalFlowtime() != traced.TotalFlowtime() || d.res.Makespan != traced.Makespan {
		rep.problem("certified drive scheduled differently: flowtime %d, makespan %d; traced drive %d, %d",
			d.res.TotalFlowtime(), d.res.Makespan, traced.TotalFlowtime(), traced.Makespan)
	}
	var clones, wins float64
	for _, ev := range d.res.Trace {
		switch {
		case ev.Kind == sim.TracePlace && ev.Clone:
			clones++
		case ev.Kind == sim.TraceComplete && ev.Clone:
			wins++
		}
	}
	rep.Metrics["sim.clone_win_share"] = wins / max(clones, 1)
	if err := verify.Check(d.res.Trace, c.fleet, c.jobs); err != nil {
		rep.problem("recorded trace fails certification: %v", err)
	}
	return nil
}

func copiesLaunched(res *sim.Result) int64 {
	if res.Digest != nil {
		return res.Digest.CopiesLaunched
	}
	var n int64
	for i := range res.Jobs {
		n += int64(res.Jobs[i].CopiesLaunched)
	}
	return n
}

// layers turns the recorder's totals into the per-layer metrics of an
// engine workload.
func (e *engineRun) layers(rep *repResult, wall float64) {
	m, rec := rep.Metrics, e.rec
	step, inject := rec.stat("sim.step"), rec.stat("sim.inject")
	schedule, arrival := rec.stat("core.schedule"), rec.stat("core.on_arrival")
	decode := rec.stat("trace.decode")

	m["bench.traced_wall_s"] = wall
	// accounted_share is how much of the traced wall the three top-level
	// spans cover; the remainder is the driver loop itself.
	m["bench.accounted_share"] = (decode.seconds() + inject.seconds() + step.seconds()) / wall

	m["trace.decode_s"] = decode.seconds()
	m["trace.decode_us_per_frame"] = float64(decode.ns) / 1e3 / float64(max(decode.calls, 1))
	m["sim.step_s"] = step.seconds()
	m["sim.steps"] = float64(step.calls)
	m["sim.self_s"] = step.seconds() - schedule.seconds() - arrival.seconds()
	m["sim.inject_s"] = inject.seconds()

	m["core.schedule_s"] = schedule.seconds()
	m["core.schedule_ms_p50"] = schedule.quantile(0.50) / 1e6
	m["core.schedule_ms_p99"] = schedule.quantile(0.99) / 1e6
	m["core.placements"] = float64(schedule.n)
	m["core.us_per_placement"] = float64(schedule.ns) / 1e3 / float64(max(schedule.n, 1))
	m["core.empty_calls"] = float64(schedule.empty)
	m["core.on_arrival_s"] = arrival.seconds()
}
