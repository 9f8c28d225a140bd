// Package simtest holds the engine drain rows that sim's
// BenchmarkEngineDrain and TestEngineEventCounts and core's work tests
// drain, so each row's schedule is pinned in one place; core's
// workcount_test.go holds the rows' work pins. It imports neither sim
// nor core, so sim's own tests can use it.
package simtest

import (
	"io"
	"path/filepath"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// Row is one engine drain worth a profile: Google-like jobs (seed 42)
// under DollyMP² on a LargeFleet, engine and fleet seed 1, with the
// schedule the row must reproduce. A profile or a count of a drain that
// schedules differently describes some other run.
type Row struct {
	Name string
	Jobs int
	// PerSlot paces arrivals (job i arrives at slot i/PerSlot); 0 makes
	// every job arrive at slot 0.
	PerSlot, Servers int
	// Replay keeps the generator's own arrivals (mean gap 1 slot) and
	// streams the jobs from an on-disk trace: frame decode is part of
	// the drain.
	Replay bool
	// Flowtime is the total over all jobs, in slots.
	Flowtime, Makespan int64
	Calls              int
}

// Rows: cloning-300 is paced-2k's regime scaled to a fleet that drains
// in a fraction of a second. The other three are the repo benchmark's
// workloads of the same names (bench/spec.go) and their numbers are the
// ones it pins: mean JCT 22.6593, 167.1699 and 16.4829 slots.
var Rows = []Row{
	{Name: "cloning-300", Jobs: 6000, PerSlot: 20, Servers: 300, Flowtime: 136_571, Makespan: 347, Calls: 716},
	{Name: "paced-2k", Jobs: 60_000, PerSlot: 130, Servers: 2000, Flowtime: 1_359_555, Makespan: 511, Calls: 1048},
	{Name: "backlog-200", Jobs: 15_000, Servers: 200, Flowtime: 2_507_548, Makespan: 572, Calls: 1136},
	{Name: "replay-32", Jobs: 100_000, Servers: 32, Replay: true, Flowtime: 1_648_294, Makespan: 135_222, Calls: 363_252},
}

// Build returns the row's fleet and its jobs, held in memory with their
// arrivals paced.
func (r Row) Build() (*cluster.Cluster, []*workload.Job) {
	jobs := trace.DefaultGoogleLike(r.Jobs, 1.0, 42).Generate()
	for i, j := range jobs {
		j.Arrival = 0
		if r.PerSlot > 0 {
			j.Arrival = int64(i / r.PerSlot)
		}
	}
	return cluster.LargeFleet(r.Servers, 1), jobs
}

// Source returns the row's fleet and an opener whose every call returns
// a fresh source of one drain: the jobs from Build, or a stream of a
// replay row's jobs, arrivals as generated, from a trace written once to
// tb's temporary directory as they are drawn and closed when tb ends.
func (r Row) Source(tb testing.TB) (*cluster.Cluster, func() func() (*workload.Job, error)) {
	if !r.Replay {
		fleet, jobs := r.Build()
		return fleet, func() func() (*workload.Job, error) { return SliceSource(jobs) }
	}
	path := filepath.Join(tb.TempDir(), "replay.trace")
	w, err := trace.CreateStream(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := trace.DefaultGoogleLike(r.Jobs, 1.0, 42).Emit(w.Append); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return cluster.LargeFleet(r.Servers, 1), func() func() (*workload.Job, error) {
		s, err := trace.OpenStream(path)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { s.Close() })
		return s.Next
	}
}

// Check fails tb unless a drain completed the row's jobs with the row's
// total flowtime, makespan and Schedule calls.
func (r Row) Check(tb testing.TB, completed int, flowtime, makespan int64, calls int) {
	tb.Helper()
	if completed != r.Jobs || flowtime != r.Flowtime || makespan != r.Makespan || calls != r.Calls {
		tb.Fatalf("completed %d, flowtime %d, makespan %d, %d Schedule calls; the row pins %d, %d, %d, %d",
			completed, flowtime, makespan, calls, r.Jobs, r.Flowtime, r.Makespan, r.Calls)
	}
}

// SliceSource yields jobs in order, then io.EOF: Drain's view of a
// workload held in memory.
func SliceSource(jobs []*workload.Job) func() (*workload.Job, error) {
	return func() (*workload.Job, error) {
		if len(jobs) == 0 {
			return nil, io.EOF
		}
		j := jobs[0]
		jobs = jobs[1:]
		return j, nil
	}
}
