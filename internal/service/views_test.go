package service

import (
	"reflect"
	"testing"
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
