package federation

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/workload"
)

// TestGatewayClusterEqualsRouterSnapshot: the same four shards — same
// global residues, same per-shard servers — fold to the same cluster
// view whether one router folds them in-process or a gateway folds two
// members' views over HTTP. Both deployments queue the same number of
// jobs, crash, and restart, so counts, queue depth and every journal
// field (written, replayed, segment accounting) are non-trivial.
func TestGatewayClusterEqualsRouterSnapshot(t *testing.T) {
	fleet := func(names ...int) *cluster.Cluster {
		specs := make([]cluster.Spec, len(names))
		for i, n := range names {
			specs[i] = cluster.Spec{Name: fmt.Sprintf("u-%d", n), Capacity: resources.Cores(8, 16), Speed: 1}
		}
		c, err := cluster.New(specs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const n = 12
	// queueAndRestart builds the router twice around a crash, leaving
	// the given number of replayed jobs queued on never-started loops.
	queueAndRestart := func(jobs int, build func() *shard.Router) *shard.Router {
		r := build()
		for i := 0; i < jobs; i++ {
			if _, err := r.SubmitNowait(&workload.Job{Name: "t", App: "test", Phases: []workload.Phase{{
				Name: "p", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 2,
			}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		r = build()
		t.Cleanup(func() { _ = r.Crash() })
		return r
	}
	base := t.TempDir()

	// One router: shard k of 4 gets servers u-k and u-(k+4).
	whole := queueAndRestart(n, func() *shard.Router {
		cfg := baseShardConfig()
		cfg.Fleet, cfg.Shards, cfg.JournalDir = fleet(0, 1, 2, 3, 4, 5, 6, 7), 4, filepath.Join(base, "whole")
		r, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})

	// Two members, each handed the servers of its two residues.
	man := Manifest{Shards: 4, Members: []Member{
		{Name: "a", JournalDir: filepath.Join(base, "a"), Residues: []int{0, 1}},
		{Name: "b", JournalDir: filepath.Join(base, "b"), Residues: []int{2, 3}},
	}}
	fleets := [][]int{{0, 1, 4, 5}, {2, 3, 6, 7}}
	for i := range man.Members {
		// n/2 jobs per member: the federation holds n, like the router.
		half := queueAndRestart(n/2, func() *shard.Router {
			cfg := baseShardConfig()
			cfg.Fleet = fleet(fleets[i]...)
			r, _, err := NewMemberRouter(man, man.Members[i].Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
		srv := httptest.NewServer(NewMemberHandler(half))
		defer srv.Close()
		man.Members[i].URL = srv.URL
	}
	g, err := NewGateway(GatewayConfig{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	var federated service.ClusterSnapshot
	if code := getJSON(t, gsrv.URL+"/v1/cluster", &federated); code != http.StatusOK {
		t.Fatalf("cluster: %d", code)
	}
	want := whole.Snapshot()
	if want.Jobs.Submitted != n || want.QueueDepth != n || want.Journal == nil ||
		want.Journal.ReplayedPending != n || want.Journal.Segments != 4 || len(want.Servers) != 8 {
		t.Fatalf("router snapshot is not the scenario: %+v journal %+v", want, want.Journal)
	}
	// The fsync accounting is a measurement of each deployment's own disk
	// writes, not state the two topologies share.
	for _, js := range []*service.JournalStatus{federated.Journal, want.Journal} {
		if js.Fsyncs < 1 || js.FsyncSeconds <= 0 {
			t.Errorf("journal status reports no fsync: %+v", js)
		}
		js.Fsyncs, js.FsyncSeconds = 0, 0
	}
	if !reflect.DeepEqual(federated, want) {
		t.Errorf("gateway /v1/cluster differs from Router.Snapshot:\n gateway %+v journal %+v\n router  %+v journal %+v",
			federated, federated.Journal, want, want.Journal)
	}
}

// flapTransport fails every other request to one host at the transport
// level — the only kind of failure the prober counts toward death.
type flapTransport struct {
	host  string
	calls atomic.Int64
}

func (f *flapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == f.host && f.calls.Add(1)%2 == 1 {
		return nil, errors.New("flap: connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestGatewayJobLookupRacesProber (run with -race): the prober flips a
// flapping member between dead and alive while GET /v1/jobs/{id}
// resolves IDs that member owns. The lookup must read liveness under
// the gateway lock, not through a member pointer it kept past it.
func TestGatewayJobLookupRacesProber(t *testing.T) {
	stub := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz":
				w.WriteHeader(http.StatusOK)
			case "/v1/federation/adopt":
				// Still leased: the flapping member is alive, keep probing.
				service.WriteError(w, http.StatusConflict, service.CodeConflict, "leased")
			default:
				service.WriteError(w, http.StatusNotFound, service.CodeNotFound, "no such job")
			}
		}))
	}
	steady, flapping := stub(), stub()
	defer steady.Close()
	defer flapping.Close()
	g, err := NewGateway(GatewayConfig{
		Manifest: Manifest{Shards: 2, Members: []Member{
			{Name: "steady", URL: steady.URL, JournalDir: "/nonexistent/steady", Residues: []int{0}},
			{Name: "flapping", URL: flapping.URL, JournalDir: "/nonexistent/flapping", Residues: []int{1}},
		}},
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.probeC.Transport = &flapTransport{host: flapping.Listener.Addr().String()}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	const rounds = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			g.probeOnce()
		}
	}()
	defer wg.Wait()
	for i := 0; i < rounds; i++ {
		// ID 2 is residue 1: owned by the flapping member.
		if code := getJSON(t, gsrv.URL+"/v1/jobs/2", nil); code != http.StatusNotFound {
			t.Fatalf("lookup %d: status %d, want 404", i, code)
		}
	}
}
