package sim

import (
	"math"
	"runtime"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// warmDrainAllocs drains 1500 jobs of cloningDrain through an online
// engine to warm it (free list, heap, scheduler scratch), then 3000 more,
// and returns the objects allocated and the copies launched per job of
// the second batch.
func warmDrainAllocs(t *testing.T, clones int) (objects, copies float64) {
	t.Helper()
	const warm, measured = 1500, 3000
	fleet, jobs := cloningDrain(warm + measured)
	e, err := New(Config{
		Cluster: fleet, Scheduler: core.MustNew(core.WithClones(clones)),
		Seed: 1, Online: true, CompactJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	drain := func(batch []*workload.Job) {
		t.Helper()
		for _, j := range batch {
			if _, err := e.InjectJob(j); err != nil {
				t.Fatal(err)
			}
		}
		for {
			idle, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if idle {
				return
			}
		}
	}
	drain(jobs[:warm])
	shift := e.Clock() - jobs[warm].Arrival // keep the pace, from where the clock stands
	for _, j := range jobs[warm:] {
		j.Arrival += shift
	}
	launched := e.res.Digest.CopiesLaunched
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain(jobs[warm:])
	runtime.ReadMemStats(&after)
	if got := e.CompletedJobs(); got != warm+measured {
		t.Fatalf("completed %d of %d jobs", got, warm+measured)
	}
	return float64(after.Mallocs-before.Mallocs) / measured,
		float64(e.res.Digest.CopiesLaunched-launched) / measured
}

// TestEngineAllocsPerJob pins what a warm drain allocates: a bounded
// number of objects per completed job — at arrival its record with the
// JobState inside, the phase array and the task cells; at its first
// placement the phase records, the copy-table heads, the rack tallies
// and the running lists' one backing array — and nothing per copy:
// copies come off the free list, and the heap, the copy table and the
// records are written in place. So the cloning regime, with twice the
// copies, allocates what the same drain without clones does.
func TestEngineAllocsPerJob(t *testing.T) {
	plain, plainCopies := warmDrainAllocs(t, 0)
	cloned, clonedCopies := warmDrainAllocs(t, 2)
	t.Logf("no clones: %.1f objects, %.1f copies per job; two clones: %.1f objects, %.1f copies per job",
		plain, plainCopies, cloned, clonedCopies)
	if clonedCopies < 10 || clonedCopies < 1.8*plainCopies {
		t.Fatalf("%.1f copies per job against %.1f without clones: not the cloning regime", clonedCopies, plainCopies)
	}
	// Measured 7.1 both ways, at 13.2 and 6.3 copies per job (28.3 when
	// the JobState kept six slices per phase and its running lists grew
	// by appending).
	if cloned > 8 {
		t.Fatalf("%.1f objects allocated per completed job, want at most 8", cloned)
	}
	if math.Abs(cloned-plain) > 1 {
		t.Fatalf("%.1f objects per job with clones, %.1f without: allocation follows the copy count", cloned, plain)
	}
}

// TestPendingArrivalHoldsOnlyItsSpec bounds what an injected job costs
// while it waits to arrive, beyond the spec the caller built: a full
// Drain window of 4096 jobs is injected into an idle online engine and
// the live heap is read before and after.
func TestPendingArrivalHoldsOnlyItsSpec(t *testing.T) {
	jobs := trace.DefaultGoogleLike(lookahead, 1.0, 42).Generate()
	e, err := New(Config{
		Cluster: cluster.LargeFleet(32, 1), Scheduler: core.MustNew(core.WithClones(2)),
		Seed: 1, Online: true, CompactJobs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for _, j := range jobs {
		if _, err := e.InjectJob(j); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	runtime.KeepAlive(jobs)
	if got := e.PendingArrivals(); got != len(jobs) {
		t.Fatalf("%d pending arrivals, want %d", got, len(jobs))
	}
	perJob := (float64(after) - float64(before)) / float64(len(jobs))
	t.Logf("%d pending jobs: %.0f B of engine heap each", len(jobs), perJob)
	// Measured 39 B: the arrival queue's slot and the map entry that
	// registers the ID (583 B when a pending job had its JobState and
	// live-job record already).
	if perJob > 64 {
		t.Fatalf("%.0f bytes of engine heap per pending job, want at most 64", perJob)
	}
}
