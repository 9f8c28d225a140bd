package main

// The benchmark's two tables: what it runs and what it reports.
// BENCHMARK.json at the repo root repeats the names, units and bounds
// for the driver; bench_test.go keeps the two in step.

// workloadSpec fixes one workload's inputs. Sizes are for -scale full.
type workloadSpec struct {
	name string
	// why is the one sentence recorded beside the results.
	why     string
	servers int
	jobs    int
	// jobsPerSlot paces arrivals (job i arrives at slot i/jobsPerSlot);
	// 0 makes every job arrive at slot 0.
	jobsPerSlot int
	// replay streams the jobs from an on-disk trace.
	replay bool
	// perCall keeps one span per Step and Schedule call in the traced
	// run; off where there are more than 1e5 of them.
	perCall bool
	// deterministic workloads are a pure function of (commit, seed):
	// their exact metrics must repeat across repetitions.
	deterministic bool
	setup         func(*workloadSpec, childOptions, *recorder) (instance, error)
}

var workloadSpecs = []workloadSpec{
	{
		name:    "paced-2k",
		why:     "light load on 2000 servers: nearly every task is cloned and Schedule is bound by the per-server scan a fit index would replace",
		servers: 2000, jobs: 60_000, jobsPerSlot: 130, perCall: true, deterministic: true, setup: setupEngine,
	},
	{
		name:    "backlog-200",
		why:     "15000 jobs arrive at once on 200 servers: the packing regime, where Schedule cost follows the active-job count, not the server scan",
		servers: 200, jobs: 15_000, perCall: true, deterministic: true, setup: setupEngine,
	},
	{
		name:    "replay-32",
		why:     "a 100000-job on-disk trace streamed into 32 servers: many cheap Schedule calls beside frame decode and the event loop, so per-call set-up cost shows as a loss",
		servers: 32, jobs: 100_000, replay: true, deterministic: true, setup: setupEngine,
	},
	{
		name:    "daemon-durable",
		why:     "client SDK over loopback HTTP into a 2-shard journaled router: fsync, JSON, admission and the service lock do the work and core almost none",
		servers: 200, jobs: 12_000, perCall: true, setup: setupDaemon,
	},
}

// instance is one set-up workload: run drives its timed phase once and
// close releases what set-up acquired.
type instance interface {
	run() (*repResult, error)
	close() error
}

func findWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// scale divides every workload's job count.
type scale struct {
	name string
	div  int
}

var scales = []scale{{"full", 1}, {"smoke", 50}}

// metricSpec names one reported number.
type metricSpec struct {
	name string
	unit string
	// lower is true when a smaller value is better.
	lower bool
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen; zero marks a per-layer metric.
	bound float64
	// exact marks a value that engine workloads must repeat exactly for
	// one commit and seed: a change means the simulated schedule changed.
	exact bool
}

// endToEnd is measured with the decorators off, on every workload.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", bound: 0.25},
	{name: "cpu_us_per_job", unit: "us", lower: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", lower: true, bound: 0.10},
}

// perLayer is reported by the traced run, layer.metric, with the layers
// named after the modules. A metric a workload does not exercise reads 0.
// The sim.* results, the counts and the client's own stopwatch need no
// decorator, so untraced repetitions report those too.
var perLayer = []metricSpec{
	{name: "bench.traced_wall_s", unit: "s", lower: true},
	{name: "bench.trace_overhead_share", unit: "share", lower: true},
	{name: "bench.decorator_cost_share", unit: "share", lower: true},
	{name: "bench.accounted_share", unit: "share"},

	{name: "trace.decode_s", unit: "s", lower: true},
	{name: "trace.frames", unit: "count", lower: true, exact: true},
	{name: "trace.bytes", unit: "bytes", lower: true, exact: true},
	{name: "trace.decode_us_per_frame", unit: "us", lower: true},

	{name: "sim.mean_jct_slots", unit: "slots", lower: true, exact: true},
	{name: "sim.makespan_slots", unit: "slots", lower: true, exact: true},
	{name: "sim.step_s", unit: "s", lower: true},
	{name: "sim.steps", unit: "count", lower: true, exact: true},
	{name: "sim.self_s", unit: "s", lower: true},
	{name: "sim.inject_s", unit: "s", lower: true},
	{name: "sim.injects", unit: "count", lower: true, exact: true},
	{name: "sim.active_jobs_peak", unit: "count", lower: true, exact: true},
	{name: "sim.pending_arrivals_peak", unit: "count", lower: true, exact: true},
	{name: "sim.copies_launched", unit: "count", lower: true, exact: true},
	{name: "sim.utilization", unit: "share", exact: true},
	{name: "sim.tasks_cloned_share", unit: "share", exact: true},
	{name: "sim.clone_win_share", unit: "share", exact: true},

	{name: "core.schedule_s", unit: "s", lower: true},
	{name: "core.schedule_calls", unit: "count", lower: true, exact: true},
	{name: "core.schedule_ms_p50", unit: "ms", lower: true},
	{name: "core.schedule_ms_p99", unit: "ms", lower: true},
	{name: "core.placements", unit: "count", lower: true, exact: true},
	{name: "core.us_per_placement", unit: "us", lower: true},
	{name: "core.empty_calls", unit: "count", lower: true, exact: true},
	{name: "core.on_arrival_s", unit: "s", lower: true},

	{name: "client.submit_s", unit: "s", lower: true},
	{name: "client.status_s", unit: "s", lower: true},
	{name: "client.submit_ms_p50", unit: "ms", lower: true},
	{name: "client.submit_ms_p99", unit: "ms", lower: true},
	{name: "client.status_ms_p50", unit: "ms", lower: true},
	{name: "client.retries", unit: "count", lower: true},

	{name: "service.http_submit_s", unit: "s", lower: true},
	{name: "service.http_status_s", unit: "s", lower: true},
	{name: "service.http_self_s", unit: "s", lower: true},
	{name: "service.metrics_scrape_ms_p50", unit: "ms", lower: true},
	{name: "service.queue_depth_peak", unit: "count", lower: true},
	{name: "service.rejected", unit: "count", lower: true},

	{name: "shard.submit_s", unit: "s", lower: true},
	{name: "shard.submit_ms_p50", unit: "ms", lower: true},
	{name: "shard.submit_ms_p99", unit: "ms", lower: true},
	{name: "shard.job_lookup_s", unit: "s", lower: true},
	{name: "shard.stolen", unit: "count", lower: true},

	{name: "journal.records", unit: "count", lower: true},
	{name: "journal.bytes", unit: "bytes", lower: true},
	{name: "journal.append_commit_us_p50", unit: "us", lower: true},
	{name: "journal.append_commit_us_p99", unit: "us", lower: true},
	{name: "journal.replay_s", unit: "s", lower: true},
	{name: "journal.replay_records", unit: "count", lower: true},

	{name: "admission.admit_us_p50", unit: "us", lower: true},
	{name: "admission.admitted", unit: "count"},
	{name: "admission.denied", unit: "count", lower: true},
}

func (m metricSpec) better() string {
	if m.lower {
		return "lower"
	}
	return "higher"
}
