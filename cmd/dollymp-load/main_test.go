package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dollymp"
	"dollymp/client"
)

// TestVerifyTenantsPastTheRing drives more jobs through one shard than
// it keeps completed records of, so the ?tenant= listing no longer
// counts them all, and requires the tenant check to pass on the
// admission accounting — and to fail once the assignment disagrees
// with it.
func TestVerifyTenantsPastTheRing(t *testing.T) {
	const n = 1500
	router, err := dollymp.NewRouter(dollymp.RouterConfig{
		Fleet: dollymp.LargeFleet(200, 1), Shards: 1, Seed: 1, Deterministic: true, QueueCap: n,
		NewScheduler: func(int) (dollymp.Scheduler, error) { return dollymp.NewScheduler(dollymp.KindDollyMP2) },
		Admission: dollymp.NewWeightedFair(dollymp.WeightedFairConfig{
			Weights: map[string]float64{"heavy": 4, "light": 1}, Burst: 4,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	srv := httptest.NewServer(dollymp.NewAPIHandler(router))
	defer srv.Close()
	defer router.Stop(context.Background())

	cl := client.New(srv.URL)
	if err := run(cl, "google", "heavy=4,light=1", n, 4, 16, 0, 42, true, time.Minute, 0, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	list, err := cl.Jobs(ctx, client.JobQuery{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if list.Total >= n {
		t.Fatalf("the shard lists all %d jobs; the test needs some evicted", list.Total)
	}
	if err := verifyTenants(ctx, cl, map[string]int{"heavy": n*4/5 + 1, "light": n/5 - 1}); err == nil {
		t.Fatal("an assignment the daemon did not admit verified")
	}
}
