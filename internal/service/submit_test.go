package service

import (
	"errors"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// TestIDStride: a shard-configured service allocates IDs in its residue
// class, so shards never collide without coordination.
func TestIDStride(t *testing.T) {
	s, err := New(Config{
		Cluster:       cluster.Uniform(4, resources.Cores(4, 8)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      3,
		IDBase:        workload.JobID(3),
		IDStride:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.JobID{3, 7, 11}
	for i, w := range want {
		id, err := s.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		if id != w {
			t.Fatalf("submission %d got ID %d, want %d", i, id, w)
		}
	}
	// A queue-full rejection must roll the allocator back by one stride:
	// the next accepted job still gets 15, not 19.
	if _, err := s.SubmitNowait(testJob(1, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// A donation frees one slot with no loop running.
	if moved := s.Donate(newShardService(t, 1, 4, 4), 1); len(moved) != 1 {
		t.Fatalf("donated %d jobs, want 1", len(moved))
	}
	if id, err := s.SubmitNowait(testJob(1, 2)); err != nil || id != 15 {
		t.Fatalf("ID after rejected submit: %d, %v (want 15)", id, err)
	}
	s.Start()
	stopDrained(t, s)
}
