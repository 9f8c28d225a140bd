//go:build !race

package sim

import (
	"io"
	"runtime"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// drainBytesPerJob drains 3000 Google-like jobs (seed 7, 20 arriving per
// slot) under DollyMP² on a LargeFleet of the given size, per-job
// results kept, and returns the bytes the engine and its scheduler
// allocated per job, from New to the drained Result. The jobs and the
// fleet are built before the count starts.
func drainBytesPerJob(t *testing.T, servers int) float64 {
	t.Helper()
	const n = 3000
	jobs := trace.DefaultGoogleLike(n, 1.0, 7).Generate()
	for i, j := range jobs {
		j.Arrival = int64(i / 20)
	}
	fleet := cluster.LargeFleet(servers, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(Config{Cluster: fleet, Scheduler: core.MustNew(core.WithClones(2)), Seed: 1, Online: true})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	res, err := e.Drain(func() (*workload.Job, error) {
		if i == len(jobs) {
			return nil, io.EOF
		}
		i++
		return jobs[i-1], nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d jobs", res.Completed, n)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestEngineBytesPerJob pins what a drain allocates per job on a small
// and on a large fleet. A per-job record sized by the fleet makes the
// second grow with the server count: measured 2205 and 8640 B (3.92x)
// when each phase kept a tally slot per rack and Result.Jobs grew by
// append, 1624 and 2269 B (1.40x) with win lists sized by the job and
// results recorded in blocks. What remains of the gap is the fleet-sized
// state of the engine and the scheduler, paid once per run.
func TestEngineBytesPerJob(t *testing.T) {
	small := drainBytesPerJob(t, 2000)
	large := drainBytesPerJob(t, 30_000)
	t.Logf("bytes per job: %.0f on 2000 servers, %.0f on 30000 (%.2fx)", small, large, large/small)
	if small > 1700 {
		t.Errorf("%.0f bytes per job on 2000 servers, want at most 1700", small)
	}
	if large > 2400 {
		t.Errorf("%.0f bytes per job on 30000 servers, want at most 2400", large)
	}
	if large > 1.5*small {
		t.Errorf("%.0f bytes per job on 30000 servers, %.2fx the %.0f on 2000: want at most 1.5x", large, large/small, small)
	}
}
