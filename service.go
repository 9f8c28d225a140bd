package dollymp

// The online service layer, re-exported through the facade via type
// aliases so embedders run the daemon core without importing internal
// packages. The Router is the one entry point — Shards: 1 is a single
// scheduling loop — and it charges RouterConfig.Admission, the edge
// policy, once per submission:
//
//	router, _ := dollymp.NewRouter(dollymp.RouterConfig{
//	    Fleet: dollymp.LargeFleet(120, 1), Shards: 4,
//	    NewScheduler: func(int) (dollymp.Scheduler, error) {
//	        return dollymp.NewScheduler(dollymp.KindDollyMP2)
//	    },
//	})
//	router.Start()
//	id, err := router.SubmitNowait(job)  // ErrQueueFull: retry later
//	http.ListenAndServe(addr, dollymp.NewAPIHandler(router))

import (
	"dollymp/internal/cluster"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/stats"
)

// Service-layer aliases: the full method sets of the internal types are
// available through them.
type (
	// Service is one online scheduling loop (daemon core): a shard of a
	// Router (Router.Shard).
	Service = service.Service
	// ServiceAPI is the lifecycle surface the HTTP layer serves; both
	// *Service and *Router implement it.
	ServiceAPI = service.API
	// JobInfo is the externally visible lifecycle record of one job.
	JobInfo = service.JobInfo
	// JobLifecycle labels a job's position in the service lifecycle
	// (queued → admitted → running → completed).
	JobLifecycle = service.JobState
	// JobFilter selects jobs for Service.Jobs / Router.Jobs.
	JobFilter = service.JobFilter
	// ServiceCounts is the service's job accounting.
	ServiceCounts = service.Counts
	// ShardStatus is one scheduling loop's /v1/shards entry.
	ShardStatus = service.ShardStatus
	// ClusterSnapshot is the aggregated cluster/queue snapshot.
	ClusterSnapshot = service.ClusterSnapshot

	// Router fans the service API out over P partitioned loops.
	Router = shard.Router
	// RouterConfig configures a Router.
	RouterConfig = shard.Config
	// RoutePolicy selects the router's placement policy.
	RoutePolicy = shard.RoutePolicy

	// ECDF is an empirical CDF over float64 samples.
	ECDF = stats.ECDF
)

// Lifecycle states, in order.
const (
	JobQueued    = service.StateQueued
	JobAdmitted  = service.StateAdmitted
	JobRunning   = service.StateRunning
	JobCompleted = service.StateCompleted
)

// Routing policies.
const (
	RouteP2C    = shard.RouteP2C
	RouteSingle = shard.RouteSingle
)

// Service sentinel errors (use errors.Is).
var (
	// ErrQueueFull: the admission queue is at capacity (HTTP 429).
	ErrQueueFull = service.ErrQueueFull
	// ErrStopped: the service is draining and accepts no new work.
	ErrStopped = service.ErrStopped
)

// NewRouter partitions the fleet and builds one stopped service per
// shard behind a load-aware router; call Start on it.
func NewRouter(cfg RouterConfig) (*Router, error) { return shard.New(cfg) }

// NewAPIHandler mounts the versioned /v1 HTTP surface (plus /healthz
// and /metrics) on any ServiceAPI implementation.
var NewAPIHandler = service.NewHandler

// PartitionCluster splits a fleet into p disjoint sub-fleets,
// round-robin by server index (see the shard router).
var PartitionCluster = cluster.Partition

// NewECDF builds an empirical CDF (quantiles, means) over samples.
var NewECDF = stats.NewECDF
