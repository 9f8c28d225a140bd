// Command dollympd runs the DollyMP scheduler as an online service: one
// or more live simulation engines stepping in virtual time while HTTP
// clients submit jobs, poll their lifecycle, and scrape metrics.
//
// Usage:
//
//	dollympd -addr 127.0.0.1:8080 -scheduler dollymp2 -fleet testbed30
//	dollympd -addr 127.0.0.1:0 -queue-cap 256 -deterministic
//	dollympd -shards 4                     # 4 partitions, p2c routing
//	dollympd -shards 4 -route single       # deterministic fallback
//	dollympd -shards 4 -steal              # cross-shard work stealing
//	dollympd -manifest fed.json -member m0 # one federation member
//	dollympd -manifest fed.json -gateway   # the federation gateway
//	dollympd -admission token-bucket -admission-rate 200
//	dollympd -admission fair -admission-weights "batch=1,serving=4"
//
// With -admission an edge policy polices submissions before they reach
// the admission queue: token-bucket caps the global rate, fair divides
// admissions between tenants by weight when the queue is under
// pressure. Denials are 429s with code "admission_denied", a reason,
// and a Retry-After hint; GET /v1/admission reports the accounting.
// The policy sits at the deployment edge — the router in the standalone
// and -member modes, the gateway itself with -gateway (where it refuses
// batches before any member is contacted).
//
// With -shards N the fleet is partitioned into N disjoint sub-fleets,
// each with its own scheduling loop, behind a load-aware router; at the
// default N=1 the daemon behaves exactly like an unsharded service.
// With -steal a rebalancer migrates still-queued jobs off straggling
// shards onto near-idle ones, cutting tail latency when submissions
// skew to one shard.
//
// With -manifest plus -member NAME the daemon runs as one federation
// member: its shard count, residue classes, and journal directory come
// from the manifest (overriding -shards and -journal-dir), and the
// /v1 surface gains POST /v1/federation/adopt, the journal-takeover
// endpoint. With -manifest plus -gateway the daemon runs the stateless
// federation gateway instead: no scheduling loops of its own, just
// routing, federated views, health probing, and takeover orchestration
// over the manifest's members.
//
// Every mode prints "listening on http://HOST:PORT" once the socket is
// bound (with the resolved port, so -addr :0 works for test harnesses),
// serves until SIGINT/SIGTERM, then drains: the HTTP listener stops
// accepting, queued and running jobs run to completion on every shard,
// and the final run summary is printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"dollymp"
	"dollymp/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		schedName = flag.String("scheduler", "dollymp2", "scheduler: "+strings.Join(dollymp.SchedulerNames(), ", "))
		fleetSpec = flag.String("fleet", "testbed30", "fleet: testbed30, or a server count for a large fleet")
		seed      = flag.Uint64("seed", 42, "random seed")
		queueCap  = flag.Int("queue-cap", service.DefaultQueueCap, "per-shard admission queue capacity (full queue => 429)")
		det       = flag.Bool("deterministic", false, "disable duration noise")
		shards    = flag.Int("shards", 1, "partition count: one scheduling loop per shard (ignored with -member: the manifest decides)")
		route     = flag.String("route", "p2c", "routing policy: p2c (load-aware) or single (always shard 0)")
		steal     = flag.Bool("steal", false, "enable the cross-shard rebalancer (migrates queued jobs off straggling shards)")
		drainTO   = flag.Duration("drain-timeout", 2*time.Minute, "max time to drain jobs on shutdown")
		jnlDir    = flag.String("journal-dir", "", "crash-safe job journal directory; on restart, unfinished jobs are replayed (empty = in-memory only; ignored with -member: the manifest decides)")
		manifest  = flag.String("manifest", "", "federation membership manifest (JSON); required by -member and -gateway")
		member    = flag.String("member", "", "run as this named member of the -manifest federation")
		gateway   = flag.Bool("gateway", false, "run as the stateless federation gateway over -manifest")
		admName   = flag.String("admission", "none", "edge admission policy: none, token-bucket, or fair")
		admRate   = flag.Float64("admission-rate", 100, "token-bucket: sustained admissions per second")
		admBurst  = flag.Float64("admission-burst", 0, "policy burst: token-bucket capacity, or the fair policy's per-tenant debt allowance (0 = policy default)")
		admWts    = flag.String("admission-weights", "", "fair: per-tenant weights, \"tenant=weight,...\" (unlisted tenants get weight 1)")
	)
	flag.Parse()

	set := make(map[string]bool) // flags given on the command line
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	adm, err := buildAdmission(*admName, *admRate, *admBurst, *admWts, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dollympd:", err)
		os.Exit(1)
	}

	cfg := dollymp.RouterConfig{
		Shards:        *shards,
		Seed:          *seed,
		Deterministic: *det,
		QueueCap:      *queueCap,
		Policy:        dollymp.RoutePolicy(*route),
		Steal:         *steal,
		JournalDir:    *jnlDir,
		Admission:     adm,
	}
	switch {
	case *gateway && *member != "":
		err = fmt.Errorf("-gateway and -member are mutually exclusive")
	case *gateway:
		err = runGateway(*addr, *manifest, adm, *drainTO)
	case *member != "":
		err = runMember(*addr, *manifest, *member, *schedName, *fleetSpec, cfg, *drainTO)
	default:
		err = run(*addr, *schedName, *fleetSpec, cfg, *drainTO)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dollympd:", err)
		os.Exit(1)
	}
}

// admissionFlags names, for each policy parameter flag, the -admission
// policies that read it.
var admissionFlags = []struct {
	name     string
	policies []string
}{
	{"admission-rate", []string{"token-bucket"}},
	{"admission-burst", []string{"token-bucket", "fair"}},
	{"admission-weights", []string{"fair"}},
}

// buildAdmission constructs the -admission edge policy: nil (no
// policing), a global token bucket, or per-tenant weighted fairness.
// Router modes charge it once per external submission at the deployment
// edge; the gateway polices before any member is contacted. set holds
// the flags given explicitly: a parameter of a policy that is not the
// selected one is refused rather than silently ignored — an operator
// who wrote -admission-rate 50 expects a policed daemon.
func buildAdmission(name string, rate, burst float64, weights string, set map[string]bool) (dollymp.AdmissionPolicy, error) {
	if name == "" {
		name = "none"
	}
	var policy dollymp.AdmissionPolicy
	switch name {
	case "none":
	case "token-bucket":
		if rate <= 0 {
			return nil, fmt.Errorf("-admission token-bucket requires -admission-rate > 0")
		}
		policy = dollymp.NewTokenBucket(dollymp.TokenBucketConfig{Rate: rate, Burst: burst})
	case "fair":
		w, err := dollymp.ParseWeights(weights)
		if err != nil {
			return nil, fmt.Errorf("-admission-weights: %w", err)
		}
		policy = dollymp.NewWeightedFair(dollymp.WeightedFairConfig{Weights: w, Burst: burst})
	default:
		return nil, fmt.Errorf("unknown -admission policy %q (valid: none, token-bucket, fair)", name)
	}
	for _, f := range admissionFlags {
		if set[f.name] && !slices.Contains(f.policies, name) {
			return nil, fmt.Errorf("-%s is set, but -admission %s does not read it (it belongs to -admission %s)",
				f.name, name, strings.Join(f.policies, " or "))
		}
	}
	return policy, nil
}

// serveHTTP is the listen/serve/drain path every mode shares: bind addr,
// print the resolved address, serve h until SIGINT/SIGTERM (or a serve
// error — an early listener death fails the process rather than hanging
// it), then stop the listener and run drain within drainTO.
func serveHTTP(addr string, h http.Handler, drainTO time.Duration, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	fmt.Printf("dollympd: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("dollympd: %v, draining\n", s)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if drain != nil {
		if err := drain(ctx); err != nil {
			return err
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func run(addr, schedName, fleetSpec string, cfg dollymp.RouterConfig, drainTO time.Duration) error {
	fleet, err := dollymp.NewFleet(fleetSpec, cfg.Seed)
	if err != nil {
		return err
	}
	cfg.Fleet = fleet
	cfg.NewScheduler = func(int) (dollymp.Scheduler, error) {
		return dollymp.NewScheduler(dollymp.Kind(schedName))
	}
	router, err := dollymp.NewRouter(cfg)
	if err != nil {
		return err
	}
	return serveRouter(addr, schedName, fleetSpec, router, cfg, dollymp.NewAPIHandler(router), drainTO)
}

// runMember runs one federation member: the manifest decides its shard
// geometry and journal directory; the flags decide everything else.
func runMember(addr, manifestPath, name, schedName, fleetSpec string, cfg dollymp.RouterConfig, drainTO time.Duration) error {
	if manifestPath == "" {
		return fmt.Errorf("-member requires -manifest")
	}
	man, err := dollymp.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	fleet, err := dollymp.NewFleet(fleetSpec, cfg.Seed)
	if err != nil {
		return err
	}
	cfg.Fleet = fleet
	cfg.NewScheduler = func(int) (dollymp.Scheduler, error) {
		return dollymp.NewScheduler(dollymp.Kind(schedName))
	}
	router, mb, err := dollymp.NewMemberRouter(man, name, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("dollympd: federation member %s: residues %v of %d global shards, journal %s\n",
		mb.Name, mb.Residues, man.Shards, mb.JournalDir)
	cfg.JournalDir = mb.JournalDir
	return serveRouter(addr, schedName, fleetSpec, router, cfg, dollymp.NewMemberHandler(router), drainTO)
}

// serveRouter starts a router (standalone or member), serves its HTTP
// surface until shutdown, drains, and prints the run summary.
func serveRouter(addr, schedName, fleetSpec string, router *dollymp.Router, cfg dollymp.RouterConfig, h http.Handler, drainTO time.Duration) error {
	if cfg.JournalDir != "" {
		js := router.JournalStatus()
		fmt.Printf("dollympd: journal %s: %d segments (%d stale), replayed %d jobs (%d re-enqueued, %d completed), %d torn bytes truncated\n",
			cfg.JournalDir, js.Segments, js.StaleSegments, js.ReplayedJobs,
			js.ReplayedPending, js.ReplayedJobs-js.ReplayedPending, js.TruncatedBytes)
	}
	router.Start()
	admName := "none"
	if cfg.Admission != nil {
		admName = cfg.Admission.Name()
	}
	fmt.Printf("dollympd: scheduler=%s fleet=%s shards=%d route=%s queue-cap=%d steal=%v admission=%s\n",
		schedName, fleetSpec, router.NumShards(), cfg.Policy, cfg.QueueCap, cfg.Steal, admName)

	err := serveHTTP(addr, h, drainTO, func(ctx context.Context) error {
		if err := router.Stop(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	c := router.Counts()
	results, err := router.Results()
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	var makespan int64
	for _, res := range results {
		if res.Makespan > makespan {
			makespan = res.Makespan
		}
	}
	fmt.Printf("dollympd: drained: %d submitted, %d completed, %d rejected, %d denied, %d stolen, makespan %d slots\n",
		c.Submitted, c.Completed, c.Rejected, c.Denied, router.Stolen(), makespan)
	if done := router.Jobs(dollymp.JobFilter{State: service.StateCompleted}); len(done) > 0 {
		flows := make([]float64, len(done))
		var sum float64
		for i, j := range done {
			flows[i] = float64(j.Flowtime)
			sum += flows[i]
		}
		ecdf := dollymp.NewECDF(flows)
		fmt.Printf("dollympd: mean flowtime %.1f slots, p95 %.0f slots\n",
			sum/float64(len(done)), ecdf.Quantile(0.95))
	}
	return nil
}

// runGateway runs the stateless federation gateway: no scheduling loops,
// just routing, federated views, and takeover over the manifest.
func runGateway(addr, manifestPath string, adm dollymp.AdmissionPolicy, drainTO time.Duration) error {
	if manifestPath == "" {
		return fmt.Errorf("-gateway requires -manifest")
	}
	man, err := dollymp.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	gw, err := dollymp.NewGateway(dollymp.GatewayConfig{Manifest: man, Admission: adm})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Stop()
	fmt.Printf("dollympd: federation gateway: %d members, %d global shards\n",
		len(man.Members), man.Shards)
	return serveHTTP(addr, gw.Handler(), drainTO, nil)
}
