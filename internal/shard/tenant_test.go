package shard

import (
	"path/filepath"
	"reflect"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/service"
	"dollymp/internal/workload"
)

// TestTenantLabelSurvivesMigrationAndReplay follows tenant-labelled
// jobs through every way a job can change hands — stolen between
// shards, replayed pending after a crash, replayed as completed history
// after a clean restart, adopted (pending and completed) by another
// member — and requires the ?tenant= listing to name the same jobs at
// every step. The label lives in the spec every submitted/injected
// journal record carries, so no hand-off may drop it.
func TestTenantLabelSurvivesMigrationAndReplay(t *testing.T) {
	const tenant = "acme"
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	// Member B pins submissions to its first shard so the rebalancer has
	// a skew to fix.
	openB := func() *Router {
		r, err := New(Config{
			Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
			Shards:        2,
			TotalShards:   4,
			Residues:      []int{2, 3},
			NewScheduler:  newFifo,
			Seed:          1,
			Deterministic: true,
			QueueCap:      64,
			Policy:        RouteSingle,
			Steal:         true,
			JournalDir:    dirB,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var want []workload.JobID
	submit := func(r *Router, n int) {
		t.Helper()
		for i := 0; i < 2*n; i++ {
			j := testJob(1, 2)
			if i%2 == 0 {
				j.Tenant = tenant
			} else if i%4 == 1 {
				j.Tenant = "someone-else"
			}
			id, err := r.SubmitNowait(j)
			if err != nil {
				t.Fatal(err)
			}
			if j.Tenant == tenant {
				want = append(want, id)
			}
		}
	}
	check := func(step string, r *Router) {
		t.Helper()
		var got []workload.JobID
		for _, info := range r.Jobs(service.JobFilter{Tenant: tenant}) {
			got = append(got, info.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tenant %q lists %v, want %v", step, tenant, got, want)
		}
	}

	b := openB()
	submit(b, 6)
	check("submitted", b)
	if moved := b.rebalanceOnce(); moved == 0 {
		t.Fatal("rebalancer moved nothing off the pinned shard")
	}
	check("stolen", b)
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}

	b = openB()
	check("replayed pending", b)
	b.Start()
	stopDrained(t, b)
	check("completed", b)

	b = openB()
	check("replayed history", b)
	submit(b, 3) // a second, still-pending batch for the adopter
	check("second batch", b)
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}

	a := newMemberRouter(t, dirA, 4, []int{0, 1}, 64)
	rep, err := a.Adopt(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 12 || rep.Pending != 6 {
		t.Fatalf("adopt report: %+v", rep)
	}
	check("adopted", a)
	a.Start()
	stopDrained(t, a)
	check("adopted and completed", a)
}
