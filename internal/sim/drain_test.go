package sim_test

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	. "dollymp/internal/sim"
	"dollymp/internal/sim/simtest"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// TestDrainBoundsLookahead: Drain never asks its source for a job while
// lookahead injected jobs are still waiting to arrive, whether arrivals
// are paced or all queued at slot 0, and every job it was handed
// completes.
func TestDrainBoundsLookahead(t *testing.T) {
	for _, c := range []struct {
		name          string
		jobs, perSlot int
	}{
		{"paced", 6000, 2},
		// More than one window at slot 0: the first pulls fill the window
		// exactly, the rest follow once it has arrived.
		{"backlog", 5000, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(Config{
				Cluster: cluster.Uniform(8, resources.Cores(4, 8)), Scheduler: Greedy{},
				Seed: 1, Deterministic: true, Online: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pulled, peak := 0, 0
			res, err := e.Drain(func() (*workload.Job, error) {
				peak = max(peak, e.PendingArrivals())
				if pulled == c.jobs {
					return nil, io.EOF
				}
				pulled++
				arrival := int64(0)
				if c.perSlot > 0 {
					arrival = int64(pulled / c.perSlot)
				}
				return SingleTaskJob(workload.JobID(pulled), arrival, 2), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if peak != Lookahead-1 {
				t.Fatalf("source saw up to %d pending arrivals, want the pull that fills the window of %d and none beyond", peak, Lookahead)
			}
			if res.Completed != c.jobs || len(res.Jobs) != c.jobs || !e.Idle() || res.Makespan <= 0 {
				t.Fatalf("completed %d (%d records) of %d jobs, idle %v, makespan %d", res.Completed, len(res.Jobs), c.jobs, e.Idle(), res.Makespan)
			}
		})
	}
}

// TestDrainReturnsErrorsAsIs: what stops a drain reaches the caller as
// the value it was, so a replay can report a *trace.CorruptError's byte
// offset.
func TestDrainReturnsErrorsAsIs(t *testing.T) {
	online := func() *Engine {
		e, err := New(Config{
			Cluster: cluster.Uniform(2, resources.Cores(4, 8)), Scheduler: Greedy{},
			Seed: 1, Deterministic: true, Online: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	torn := &trace.CorruptError{Offset: 77, Frame: 3, Reason: "torn frame payload"}
	n := 0
	_, err := online().Drain(func() (*workload.Job, error) {
		if n++; n > 3 {
			return nil, torn
		}
		return SingleTaskJob(workload.JobID(n), 0, 2), nil
	})
	var ce *trace.CorruptError
	if !errors.As(err, &ce) || ce.Offset != 77 || ce.Frame != 3 {
		t.Fatalf("source error came back as %v", err)
	}

	// The same ID twice: InjectJob's refusal ends the drain.
	_, err = online().Drain(simtest.SliceSource([]*workload.Job{SingleTaskJob(1, 0, 2), SingleTaskJob(1, 1, 2)}))
	if err == nil || !strings.Contains(err.Error(), "duplicate job ID 1") {
		t.Fatalf("duplicate ID: %v", err)
	}
}

// TestDrainRetainsNothingPerJob is the in-process statement of "peak
// RSS flat from 1M to 25M replayed jobs": after a compact drain the
// heap still reachable does not grow with the number of jobs drained. A
// retained JobMetrics alone is over 100 bytes.
func TestDrainRetainsNothingPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("drains 50 000 jobs")
	}
	retained := func(n int) uint64 {
		e, err := New(Config{
			Cluster: cluster.LargeFleet(32, 1), Scheduler: core.MustNew(core.WithClones(2)),
			Seed: 1, Online: true, CompactJobs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Drain(simtest.SliceSource(trace.DefaultGoogleLike(n, 1.0, 42).Generate()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != n {
			t.Fatalf("completed %d of %d jobs", res.Completed, n)
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(e)
		return m.HeapAlloc
	}
	const n = 10_000
	small, large := retained(n), retained(4*n)
	perJob := (float64(large) - float64(small)) / (3 * n)
	t.Logf("heap retained after %d jobs: %d B, after %d: %d B; %.1f B per extra job", n, small, 4*n, large, perJob)
	if perJob > 32 {
		t.Fatalf("%.1f bytes retained per extra completed job, want at most 32", perJob)
	}
}

// TestResultJobsExactSize: the per-job results a drain hands back fill
// their slice exactly, for an online drain and for a batch run of the
// same jobs. 2500 records span three result blocks, the last one part
// full.
func TestResultJobsExactSize(t *testing.T) {
	const n = 2500
	jobs := func() []*workload.Job {
		out := make([]*workload.Job, n)
		for i := range out {
			out[i] = SingleTaskJob(workload.JobID(i+1), int64(i/8), 2)
		}
		return out
	}
	e, err := New(Config{
		Cluster: cluster.Uniform(8, resources.Cores(4, 8)), Scheduler: Greedy{},
		Seed: 1, Deterministic: true, Online: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, i := jobs(), 0
	online, err := e.Drain(func() (*workload.Job, error) {
		if i == len(src) {
			return nil, io.EOF
		}
		i++
		return src[i-1], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := runDet(t, cluster.Uniform(8, resources.Cores(4, 8)), jobs(), Greedy{})
	for name, res := range map[string]*Result{"online": online, "batch": batch} {
		// Grown by append, the slice had 2594 slots for 2500 records.
		if len(res.Jobs) != n || cap(res.Jobs) != n {
			t.Errorf("%s: %d job records in a slice of capacity %d, want %d in %d", name, len(res.Jobs), cap(res.Jobs), n, n)
		}
	}
}
