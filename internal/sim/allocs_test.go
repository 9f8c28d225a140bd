package sim

import (
	"math"
	"runtime"
	"testing"

	"dollymp/internal/core"
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
// number of objects per completed job — its JobState, its record, the
// copy table and phase records opened at its first placement, the
// running lists' growth — and nothing per copy: copies come off the free
// list, and the heap, the copy table and the records are written in
// place. So the cloning regime, with twice the copies, allocates what
// the same drain without clones does.
func TestEngineAllocsPerJob(t *testing.T) {
	plain, plainCopies := warmDrainAllocs(t, 0)
	cloned, clonedCopies := warmDrainAllocs(t, 2)
	t.Logf("no clones: %.1f objects, %.1f copies per job; two clones: %.1f objects, %.1f copies per job",
		plain, plainCopies, cloned, clonedCopies)
	if clonedCopies < 10 || clonedCopies < 1.8*plainCopies {
		t.Fatalf("%.1f copies per job against %.1f without clones: not the cloning regime", clonedCopies, plainCopies)
	}
	// Measured 28.3 both ways, at 13.2 and 6.3 copies per job.
	if cloned > 31 {
		t.Fatalf("%.1f objects allocated per completed job, want at most 31", cloned)
	}
	if math.Abs(cloned-plain) > 1 {
		t.Fatalf("%.1f objects per job with clones, %.1f without: allocation follows the copy count", cloned, plain)
	}
}
