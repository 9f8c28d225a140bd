package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
)

// TestClusterSnapshotAdd pins the merge rules the router and the
// gateway share: sums and utilization do not depend on fold order,
// utilization is over the union of servers (not an average of
// per-part ratios), and journal status appears iff some part has one.
func TestClusterSnapshotAdd(t *testing.T) {
	small := ClusterSnapshot{
		Scheduler: "a", Shards: 1, Clock: 7, ActiveJobs: 1, PendingArrival: 2, QueueDepth: 3,
		Jobs:           Counts{Submitted: 5, Admitted: 4, Completed: 3, Rejected: 2, Denied: 1},
		UtilizationCPU: 1, UtilizationMem: 0.5,
		Servers: []ServerInfo{{ID: 0, CPUMilli: 1000, MemMiB: 1000, UsedCPU: 1000, UsedMem: 500}},
		Journal: &JournalStatus{Enabled: true, Records: 10, ReplayedJobs: 2},
	}
	big := ClusterSnapshot{
		Scheduler: "b", Shards: 1, Clock: 9, ActiveJobs: 10, PendingArrival: 20, QueueDepth: 30, Draining: true,
		Jobs: Counts{Submitted: 50, Admitted: 40, Completed: 30},
		Servers: []ServerInfo{
			{ID: 1, CPUMilli: 3000, MemMiB: 1000},
			{ID: 2, CPUMilli: 4000, MemMiB: 2000, UsedCPU: 1000},
		},
	}
	fold := func(parts ...ClusterSnapshot) ClusterSnapshot {
		agg := ClusterSnapshot{Shards: len(parts)}
		for _, p := range parts {
			agg.Add(p)
		}
		return agg
	}
	ab, ba := fold(small, big), fold(big, small)

	if ab.Scheduler != "a" || ba.Scheduler != "b" {
		t.Errorf("scheduler is first-wins: got %q and %q", ab.Scheduler, ba.Scheduler)
	}
	if ab.Shards != 2 {
		t.Errorf("Add touched Shards: %d", ab.Shards)
	}
	if got := []int{ab.Servers[0].ID, ab.Servers[1].ID, ab.Servers[2].ID}; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("servers concatenate in fold order: %v", got)
	}
	if ab.Clock != 9 || ab.ActiveJobs != 11 || ab.PendingArrival != 22 || ab.QueueDepth != 33 || !ab.Draining {
		t.Errorf("scalar merge: %+v", ab)
	}
	if want := (Counts{Submitted: 55, Admitted: 44, Completed: 33, Rejected: 2, Denied: 1}); ab.Jobs != want {
		t.Errorf("counts: %+v, want %+v", ab.Jobs, want)
	}
	// 2000 of 8000 milli-CPU and 500 of 4000 MiB are in use across the
	// union; the mean of the parts' own ratios would be different.
	if ab.UtilizationCPU != 0.25 || ab.UtilizationMem != 0.125 {
		t.Errorf("utilization over the union: cpu %v mem %v", ab.UtilizationCPU, ab.UtilizationMem)
	}
	// Everything that is not inherently ordered agrees across fold orders.
	ba.Scheduler, ba.Servers = ab.Scheduler, ab.Servers
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("fold order changed the merge:\n a+b %+v\n b+a %+v", ab, ba)
	}

	if ab.Journal == nil || *ab.Journal != *small.Journal {
		t.Errorf("journal of the only journaled part: %+v", ab.Journal)
	}
	if ab.Journal == small.Journal {
		t.Error("merge aliases a part's journal status")
	}
	if fold(big, big).Journal != nil {
		t.Error("journal status appeared with no journaled part")
	}
	if js := fold(small, small).Journal; js == nil || js.Records != 20 || js.ReplayedJobs != 4 || !js.Enabled {
		t.Errorf("journal status sums: %+v", js)
	}
}

// TestPublishDoesNotAllocate: the loop publishes after every engine
// step, so what it costs is per step, not per read — on a shard-sized
// fleet it must overwrite the view it owns and allocate nothing.
func TestPublishDoesNotAllocate(t *testing.T) {
	s, err := New(Config{
		Cluster:       cluster.Uniform(100, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, s.publish); allocs != 0 {
		t.Fatalf("publish allocates %v objects per call on 100 servers, want 0", allocs)
	}
	if got := len(s.Snapshot().Servers); got != 100 {
		t.Fatalf("snapshot has %d servers, want 100", got)
	}
}

// TestSnapshotIsACopy: the loop overwrites its per-server view in
// place, so what Snapshot hands out must be the caller's own — writing
// to it must not reach the next reader, and reading it must not race
// the loop (the second half is for -race).
func TestSnapshotIsACopy(t *testing.T) {
	s := newTestService(t, 200) // room for everything sent below
	first := s.Snapshot()
	for i := range first.Servers {
		first.Servers[i].UsedCPU = -1
		first.Servers[i].Name = "scribbled"
	}
	for _, srv := range s.Snapshot().Servers {
		if srv.UsedCPU != 0 || srv.Name == "scribbled" {
			t.Fatalf("a caller's write to its snapshot reached the service: %+v", srv)
		}
	}

	s.Start()
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, srv := range s.Snapshot().Servers {
					if srv.UsedCPU < 0 || srv.UsedCPU > srv.CPUMilli {
						t.Errorf("server %d reports %d of %d milli-CPU used", srv.ID, srv.UsedCPU, srv.CPUMilli)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := s.SubmitNowait(testJob(1+i%4, float64(1+i%5))); err != nil {
			t.Fatal(err)
		}
	}
	stopDrained(t, s)
	close(stop)
	readers.Wait()
}

// TestClusterViewTracksOccupancy: the per-server used_* fields, now
// overwritten rather than rebuilt, equal the cluster's own ledger while
// tasks hold capacity and again after the drain has released it all.
func TestClusterViewTracksOccupancy(t *testing.T) {
	s := newTestService(t, 16)
	agrees := func(step string, servers []ServerInfo) (used int64) {
		t.Helper()
		if len(servers) != s.cfg.Cluster.Len() {
			t.Fatalf("%s: %d servers in the view, %d in the cluster", step, len(servers), s.cfg.Cluster.Len())
		}
		for i, srv := range s.cfg.Cluster.Servers() {
			u := srv.Used()
			if got := servers[i]; got.ID != int(srv.ID) || got.UsedCPU != u.CPUMilli || got.UsedMem != u.MemMiB || got.Failed != srv.Failed() {
				t.Fatalf("%s: view of server %d is %+v, the cluster says used %v failed %v", step, srv.ID, got, u, srv.Failed())
			}
			used += u.CPUMilli
		}
		return used
	}
	// The loop is not started, so the test goroutine may stand in for it
	// and read the cluster between steps.
	for i := 0; i < 3; i++ {
		if _, err := s.SubmitNowait(testJob(4, 5)); err != nil {
			t.Fatal(err)
		}
		s.admit(<-s.subCh)
	}
	if _, err := s.eng.Step(); err != nil {
		t.Fatal(err)
	}
	s.publish()
	snap := s.Snapshot()
	if used := agrees("running", snap.Servers); used == 0 {
		t.Fatal("no capacity held after a step with 12 runnable tasks")
	}
	if want := float64(12*1000) / float64(8*8000); snap.UtilizationCPU != want {
		t.Fatalf("utilization %v, want %v", snap.UtilizationCPU, want)
	}

	s.Start()
	stopDrained(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if used := agrees("drained", served.Servers); used != 0 || served.UtilizationCPU != 0 {
		t.Fatalf("drained cluster still reports %d milli-CPU used, utilization %v", used, served.UtilizationCPU)
	}
	if served.Jobs.Completed != 3 {
		t.Fatalf("drain completed %d of 3 jobs", served.Jobs.Completed)
	}
}
