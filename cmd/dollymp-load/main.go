// Command dollymp-load fires synthetic jobs at a running dollympd and
// reports submission throughput and latency percentiles. It is both a
// load generator and the e2e smoke check: with -wait it polls the
// daemon until every submitted job completes and certifies the /metrics
// endpoint parses as Prometheus text with counters that agree, and with
// -probe it exercises the /v1 error surface and asserts every failure
// is the machine-readable envelope {"error":{"code","message"}}.
//
// The tool is a thin shell over the public client SDK (dollymp/client):
// every HTTP request — submission with envelope-code retries and
// partial-batch resubmission, completion waiting, metrics scraping, the
// error-surface probe — goes through the Client, to -addr. The retry
// policy is the SDK's: "queue_full", "admission_denied" and
// "unavailable" back off by the server's Retry-After hint and resubmit;
// any other code aborts the run with the code surfaced in the error.
//
// Usage:
//
//	dollymp-load -addr http://127.0.0.1:8080 -n 500 -c 8 -qps 200
//	dollymp-load -addr http://127.0.0.1:8080 -n 50 -c 4 -wait
//	dollymp-load -addr http://127.0.0.1:8080 -n 5000 -c 8 -batch 32 -wait
//	dollymp-load -addr http://127.0.0.1:8080 -probe -expect-shards 4
//	dollymp-load -addr http://127.0.0.1:8080 -n 50 -watch -min-replayed 1
//	dollymp-load -addr http://127.0.0.1:8080 -n 400 -tenants heavy=4,light=1 -wait
//
// With -watch nothing is submitted: the generator only waits for -n
// jobs to reach completed — the kill-and-restart smoke pass uses it
// against a daemon that replayed its journal, with -min-replayed
// asserting the restart actually restored jobs rather than starting
// empty.
//
// With -tenants, jobs carry tenant labels assigned proportionally to
// the given weights ("heavy=4,light=1" labels 4 of every 5 jobs
// heavy); with -wait the per-tenant admitted counts from /v1/admission
// are then verified against the assignment and printed — pointed at a
// daemon running -admission=fair, this is the skewed-overload fairness
// check. A policy without per-tenant accounting is reported unverified.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dollymp"
	"dollymp/client"
	"dollymp/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "dollympd base URL")
		n       = flag.Int("n", 100, "total jobs to submit")
		c       = flag.Int("c", 4, "concurrent submitters")
		qps     = flag.Float64("qps", 0, "target aggregate submission rate (0 = closed loop)")
		wl      = flag.String("workload", "mixed", "workload: "+strings.Join(dollymp.WorkloadNames(), ", "))
		seed    = flag.Uint64("seed", 42, "workload seed")
		batch   = flag.Int("batch", 1, "jobs per POST (amortizes HTTP overhead; a batch is one trace-file body)")
		wait    = flag.Bool("wait", false, "after submitting, wait for all jobs to complete and verify /metrics")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall deadline for -wait")
		probe   = flag.Bool("probe", false, "probe the /v1 error surface (envelope shape, codes) instead of generating load")
		shards  = flag.Int("expect-shards", 0, "with -probe: assert /v1/shards reports exactly this many shards (0 = skip)")
		steals  = flag.Int64("min-steals", 0, "with -wait: assert the rebalancer migrated at least this many jobs (0 = skip)")
		watch   = flag.Bool("watch", false, "submit nothing; wait for -n jobs to complete (post-restart verification)")
		replay  = flag.Int64("min-replayed", 0, "with -wait/-watch: assert the journal replayed at least this many jobs (0 = skip)")
		tenants = flag.String("tenants", "", "label jobs with tenants proportionally to weights (\"a=4,b=1\"; with -wait, verifies and prints the per-tenant admission counts)")
	)
	flag.Parse()

	cl := client.New(*addr)
	var err error
	switch {
	case *probe:
		err = runProbe(cl, *shards)
	case *watch:
		err = watchOnly(cl, int64(*n), *steals, *replay, *timeout)
	default:
		err = run(cl, *wl, *tenants, *n, *c, *batch, *qps, *seed, *wait, *timeout, *steals, *replay)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dollymp-load:", err)
		os.Exit(1)
	}
}

func run(cl *client.Client, wl, tenantSpec string, n, c, batch int, qps float64, seed uint64, wait bool, timeout time.Duration, minSteals, minReplayed int64) error {
	if n < 1 || c < 1 || batch < 1 {
		return fmt.Errorf("-n, -c and -batch must be positive")
	}
	jobs, err := dollymp.NewWorkload(wl, n, 0, seed)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		// The daemon assigns IDs and arrival slots; strip ours so the
		// strict decoder sees a clean submission.
		j.ID = 0
		j.Arrival = 0
	}
	perTenant, err := labelTenants(jobs, tenantSpec)
	if err != nil {
		return err
	}
	var batches [][]*dollymp.Job
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		batches = append(batches, jobs[at:end])
	}

	// A global ticker paces the aggregate rate; closed loop if qps == 0.
	var tick <-chan time.Time
	if qps > 0 {
		tk := time.NewTicker(time.Duration(float64(time.Second) / qps))
		defer tk.Stop()
		tick = tk.C
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var (
		next      atomic.Int64
		submitted atomic.Int64
		mu        sync.Mutex
		latencies []float64
	)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, c)
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				if tick != nil {
					<-tick
				}
				t0 := time.Now()
				ids, err := cl.SubmitBatch(ctx, batches[i])
				if err != nil {
					errCh <- fmt.Errorf("batch %d: %w", i, err)
					return
				}
				submitted.Add(int64(len(ids)))
				mu.Lock()
				latencies = append(latencies, time.Since(t0).Seconds()*1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}

	ecdf := stats.NewECDF(latencies)
	fmt.Printf("submitted %d jobs in %v (%.1f jobs/s, %d submitters, %d backpressure retries)\n",
		submitted.Load(), elapsed.Round(time.Millisecond),
		float64(submitted.Load())/elapsed.Seconds(), c, cl.Retries())
	fmt.Printf("submit latency p50/p95/p99: %.2f / %.2f / %.2f ms\n",
		ecdf.Quantile(0.5), ecdf.Quantile(0.95), ecdf.Quantile(0.99))

	if !wait {
		return nil
	}
	if err := waitDrained(ctx, cl, int64(n), minSteals, minReplayed); err != nil {
		return err
	}
	if err := verifyTenants(ctx, cl, perTenant); err != nil {
		return err
	}
	e2e := time.Since(start)
	fmt.Printf("end-to-end: %d jobs completed in %v (%.1f jobs/s)\n",
		n, e2e.Round(time.Millisecond), float64(n)/e2e.Seconds())
	return nil
}

// labelTenants stamps jobs with tenant labels proportionally to the
// spec's weights ("a=4,b=1" → 4 of every 5 jobs labelled a), greedily
// keeping every prefix of the assignment on-ratio. Returns the
// per-tenant counts ("" spec → nil, nothing labelled).
func labelTenants(jobs []*dollymp.Job, spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	weights, err := dollymp.ParseWeights(spec)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	if len(weights) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(weights))
	for tn := range weights {
		names = append(names, tn)
	}
	sort.Strings(names)
	counts := make(map[string]int, len(names))
	for _, j := range jobs {
		// Next label: the tenant furthest below its weighted share.
		best := names[0]
		bestScore := float64(counts[best]) / weights[best]
		for _, tn := range names[1:] {
			if score := float64(counts[tn]) / weights[tn]; score < bestScore {
				best, bestScore = tn, score
			}
		}
		j.Tenant = best
		counts[best]++
	}
	return counts, nil
}

// verifyTenants cross-checks the daemon's per-tenant admission
// accounting against the assignment and prints it. The ?tenant=
// listing cannot serve: each shard lists only its newest completed
// jobs. The policy's per-tenant Admitted counts every job it let
// through, so it must equal the assignment — except that a job the
// policy admitted and every queue then refused is charged again when
// the SDK retries it, so each queue-full rejection the deployment
// counted allows one more. A policy that keeps no per-tenant accounting
// leaves nothing to check, and the tool says so.
func verifyTenants(ctx context.Context, cl *client.Client, perTenant map[string]int) error {
	if len(perTenant) == 0 {
		return nil
	}
	names := make([]string, 0, len(perTenant))
	for tn := range perTenant {
		names = append(names, tn)
	}
	sort.Strings(names)
	adm, err := cl.Admission(ctx)
	if err != nil {
		return fmt.Errorf("admission view: %w", err)
	}
	if adm.Stats == nil || adm.Stats.Tenants == nil {
		fmt.Printf("tenants not verified: policy %s keeps no per-tenant accounting\n", adm.Policy)
		return nil
	}
	snap, err := cl.Cluster(ctx)
	if err != nil {
		return fmt.Errorf("cluster view: %w", err)
	}
	parts := make([]string, 0, len(names))
	for _, tn := range names {
		ts, want := adm.Stats.Tenants[tn], int64(perTenant[tn])
		if ts.Admitted < want || ts.Admitted > want+snap.Jobs.Rejected {
			return fmt.Errorf("tenant %s: daemon admitted %d jobs, %d were submitted (%d queue-full rejections)",
				tn, ts.Admitted, want, snap.Jobs.Rejected)
		}
		parts = append(parts, fmt.Sprintf("%s %d/%d", tn, ts.Admitted, ts.Admitted+ts.Denied))
	}
	fmt.Printf("tenants verified (policy %s): %s\n", adm.Policy, strings.Join(parts, ", "))
	return nil
}

// waitDrained waits for every submitted job to complete and prints the
// counter cross-check summary (see client.WaitDrained for the checks).
func waitDrained(ctx context.Context, cl *client.Client, want, minSteals, minReplayed int64) error {
	st, err := cl.WaitDrained(ctx, client.WaitConfig{
		Jobs: want, MinSteals: minSteals, MinReplayed: minReplayed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("all %d jobs completed; /metrics parses and counters agree (%d stolen, %d replayed)\n",
		st.Completed, st.Stolen, st.Replayed)
	return nil
}

func watchOnly(cl *client.Client, want, minSteals, minReplayed int64, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return waitDrained(ctx, cl, want, minSteals, minReplayed)
}

func runProbe(cl *client.Client, expectShards int) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := cl.Probe(ctx, expectShards)
	if err != nil {
		return err
	}
	fmt.Printf("probe ok: error envelope verified on %d surfaces, /readyz serving, %d shard(s) reported, admission policy %s\n",
		rep.EnvelopeChecks, rep.Shards, rep.AdmissionPolicy)
	return nil
}
